package obs

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// ManifestSchema versions the manifest layout. Bump it when a field
// changes meaning, so downstream diff tooling can refuse mixed
// comparisons.
const ManifestSchema = 1

// Manifest is the machine-readable record of one evaluation run: the
// configuration that produced a set of results, the deterministic
// aggregate simulator counters, and the run's timing. It is written as
// JSON next to the results.
//
// The Sim section is a pure function of the simulated work: for a
// fixed command line it is byte-identical across runs, worker
// schedules and GOMAXPROCS settings (pinned by a test). Flags, Env and
// Timing describe the particular execution and are excluded from that
// guarantee — comparing two runs means diffing their Sim sections and
// reading Timing for context.
type Manifest struct {
	// Schema is ManifestSchema at write time.
	Schema int `json:"schema"`
	// Tool names the command that wrote the manifest.
	Tool string `json:"tool"`
	// Flags records every flag's final value, including defaults.
	// Output paths appear here, so Flags is not part of the
	// deterministic section.
	Flags map[string]string `json:"flags,omitempty"`
	// Env describes the executing toolchain and machine shape.
	Env EnvInfo `json:"env"`
	// Sim is the deterministic section; see the type comment.
	Sim SimSection `json:"sim"`
	// Timing is the wall-clock section.
	Timing TimingSection `json:"timing"`
}

// EnvInfo records the toolchain, build and machine the run executed
// on. The build fields come from debug.ReadBuildInfo and are empty in
// binaries built without module support (e.g. some test binaries).
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Module is the main module path, ModVersion its version (often
	// "(devel)" for local builds).
	Module     string `json:"module,omitempty"`
	ModVersion string `json:"mod_version,omitempty"`
	// VCSRevision, VCSTime and VCSModified stamp the source state the
	// binary was built from, when the build embedded VCS info.
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// buildInfo fills the EnvInfo build fields from the running binary's
// embedded module and VCS metadata.
func (e *EnvInfo) buildInfo() {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	e.Module = bi.Main.Path
	e.ModVersion = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			e.VCSRevision = s.Value
		case "vcs.time":
			e.VCSTime = s.Value
		case "vcs.modified":
			e.VCSModified = s.Value == "true"
		}
	}
}

// JobCounts reconciles the runner's view of a campaign. For a run
// without cancellation: Submitted == Succeeded + Failed +
// FromCheckpoint, and the HistJobSeconds histogram holds exactly
// Succeeded + Failed - Drained observations (drained jobs never
// execute).
type JobCounts struct {
	Submitted      uint64 `json:"submitted"`
	Succeeded      uint64 `json:"succeeded"`
	Failed         uint64 `json:"failed"`
	FromCheckpoint uint64 `json:"from_checkpoint"`
	Drained        uint64 `json:"drained"`
	Timeouts       uint64 `json:"timeouts"`
	Panics         uint64 `json:"panics"`
}

// SimSection is the deterministic part of the manifest.
type SimSection struct {
	// Config holds the simulation-relevant configuration: stream
	// scale, section subset, seed scheme. Only values that are the
	// same for reruns of the same command line belong here.
	Config map[string]string `json:"config"`
	// Jobs reconciles the runner's job accounting.
	Jobs JobCounts `json:"jobs"`
	// Counters holds every registry counter outside the runner_*
	// namespace — the sim_* aggregates of cache.Stats, instructions
	// retired and predictor verdicts. Counter arithmetic is
	// commutative uint64 addition, so these are schedule-independent.
	Counters map[string]uint64 `json:"counters"`
}

// SectionTiming is one section's (or figure's) wall time.
type SectionTiming struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

// TimingSection is the nondeterministic part of the manifest.
type TimingSection struct {
	// Started is the run's start time, RFC3339Nano.
	Started string `json:"started"`
	// WallMS is the whole run's wall time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Sections lists per-section wall times, from spans, in End order.
	Sections []SectionTiming `json:"sections,omitempty"`
	// Gauges holds throughput-style instantaneous values
	// (accesses/sec, aggregate simulated IPC).
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms summarizes timing distributions (per-job seconds).
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// NewManifest returns a manifest stamped with the schema version and
// the current environment.
func NewManifest(tool string) *Manifest {
	m := &Manifest{
		Schema: ManifestSchema,
		Tool:   tool,
		Env: EnvInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Sim: SimSection{
			Config:   map[string]string{},
			Counters: map[string]uint64{},
		},
		Timing: TimingSection{
			Gauges:     map[string]float64{},
			Histograms: map[string]HistogramStats{},
		},
	}
	m.Env.buildInfo()
	return m
}

// FillFromRegistry folds a registry snapshot into the manifest:
// runner_* counters become Sim.Jobs, every other counter lands in
// Sim.Counters, and gauges, histograms and spans land in Timing.
func (m *Manifest) FillFromRegistry(r *Registry) {
	snap := r.Snapshot()
	m.Sim.Jobs = JobCounts{
		Submitted:      snap.Counters[CtrJobsSubmitted],
		Succeeded:      snap.Counters[CtrJobsSucceeded],
		Failed:         snap.Counters[CtrJobsFailed],
		FromCheckpoint: snap.Counters[CtrJobsFromCheckpoint],
		Drained:        snap.Counters[CtrJobsDrained],
		Timeouts:       snap.Counters[CtrJobTimeouts],
		Panics:         snap.Counters[CtrJobPanics],
	}
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, "runner_") {
			m.Sim.Counters[name] = v
		}
	}
	for name, v := range snap.Gauges {
		m.Timing.Gauges[name] = v
	}
	for name, h := range snap.Histograms {
		m.Timing.Histograms[name] = h
	}
	for _, sp := range snap.Spans {
		m.Timing.Sections = append(m.Timing.Sections, SectionTiming{
			Name:   sp.Name,
			WallMS: float64(sp.Duration) / float64(time.Millisecond),
		})
	}
}

// MarshalIndent renders the manifest as stable, human-diffable JSON
// (maps are key-sorted by encoding/json) with a trailing newline.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	b, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
