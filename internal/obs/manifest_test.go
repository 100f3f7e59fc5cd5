package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fill populates a registry the way a campaign does: runner counters,
// sim counters, a timing histogram and a span.
func fill(r *Registry) {
	r.Counter(CtrJobsSubmitted).Add(10)
	r.Counter(CtrJobsSucceeded).Add(7)
	r.Counter(CtrJobsFailed).Add(2)
	r.Counter(CtrJobsFromCheckpoint).Add(1)
	r.Counter(CtrJobTimeouts).Add(1)
	r.Counter(CtrJobPanics).Add(1)
	r.Counter(SimPrefix + "llc_accesses").Add(1000)
	r.Counter(SimPrefix + "llc_hits").Add(600)
	r.Counter(SimPrefix + "llc_misses").Add(400)
	r.Histogram(HistJobSeconds).Observe(0.25)
	r.Histogram(HistJobSeconds).Observe(0.75)
	r.Gauge(SimPrefix + "accesses_per_sec").Set(123.5)
	sp := r.StartSpan("section:fig4")
	sp.End()
}

// TestManifestFillReconciles checks the registry→manifest mapping: the
// runner_* counters land in Sim.Jobs, every other counter in
// Sim.Counters, and nothing deterministic leaks into Timing (or vice
// versa).
func TestManifestFillReconciles(t *testing.T) {
	r := NewRegistry()
	fill(r)
	m := NewManifest("test")
	m.FillFromRegistry(r)

	want := JobCounts{Submitted: 10, Succeeded: 7, Failed: 2, FromCheckpoint: 1,
		Timeouts: 1, Panics: 1}
	if m.Sim.Jobs != want {
		t.Errorf("Sim.Jobs = %+v, want %+v", m.Sim.Jobs, want)
	}
	if got := m.Sim.Counters[SimPrefix+"llc_accesses"]; got != 1000 {
		t.Errorf("sim counter = %d, want 1000", got)
	}
	if m.Sim.Counters[SimPrefix+"llc_hits"]+m.Sim.Counters[SimPrefix+"llc_misses"] !=
		m.Sim.Counters[SimPrefix+"llc_accesses"] {
		t.Error("hits+misses != accesses in the assembled manifest")
	}
	for name := range m.Sim.Counters {
		if len(name) >= 7 && name[:7] == "runner_" {
			t.Errorf("runner counter %q leaked into Sim.Counters", name)
		}
	}
	h, ok := m.Timing.Histograms[HistJobSeconds]
	if !ok || h.Count != 2 {
		t.Errorf("job-seconds histogram = %+v, want count 2", h)
	}
	if got := m.Timing.Gauges[SimPrefix+"accesses_per_sec"]; got != 123.5 {
		t.Errorf("gauge = %v, want 123.5", got)
	}
	if len(m.Timing.Sections) != 1 || m.Timing.Sections[0].Name != "section:fig4" {
		t.Errorf("sections = %+v, want the fig4 span", m.Timing.Sections)
	}
}

// TestManifestSimSectionDeterministic pins that marshaling the Sim
// section is byte-stable: two manifests assembled from identically
// counted registries produce identical sim bytes, regardless of the
// order the counters were touched in.
func TestManifestSimSectionDeterministic(t *testing.T) {
	build := func(reverse bool) []byte {
		r := NewRegistry()
		names := []string{"sim_a", "sim_b", "sim_c", "sim_d"}
		if reverse {
			for i := len(names) - 1; i >= 0; i-- {
				r.Counter(names[i]).Add(uint64(i + 1))
			}
		} else {
			for i, n := range names {
				r.Counter(n).Add(uint64(i + 1))
			}
		}
		m := NewManifest("test")
		m.Sim.Config["scale"] = "0.01"
		m.FillFromRegistry(r)
		b, err := json.Marshal(m.Sim)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := build(false), build(true); !bytes.Equal(a, b) {
		t.Errorf("sim sections differ by counter touch order:\n%s\n%s", a, b)
	}
}

// TestManifestSectionsStartOrder extends the determinism contract to
// spans: sections in the manifest follow span start order even when the
// spans end concurrently in arbitrary order (the snapshot sorts by
// start time, not append order).
func TestManifestSectionsStartOrder(t *testing.T) {
	r := NewRegistry()
	names := []string{"section:a", "section:b", "section:c", "section:d"}
	spans := make([]*Span, len(names))
	for i, n := range names {
		spans[i] = r.StartSpan(n)
		time.Sleep(200 * time.Microsecond)
	}
	done := make(chan struct{})
	for i := len(spans) - 1; i >= 0; i-- {
		go func(sp *Span) { sp.End(); done <- struct{}{} }(spans[i])
	}
	for range spans {
		<-done
	}
	m := NewManifest("test")
	m.FillFromRegistry(r)
	if len(m.Timing.Sections) != len(names) {
		t.Fatalf("sections = %+v, want %d", m.Timing.Sections, len(names))
	}
	for i, sec := range m.Timing.Sections {
		if sec.Name != names[i] {
			t.Errorf("section %d = %q, want %q (start order)", i, sec.Name, names[i])
		}
	}
}

// TestManifestBuildInfo checks the env section stamps the binary's
// module identity. Test binaries are built with module support, so
// the main module path must come through; the VCS fields are only
// present when the build embedded them, so they are not asserted.
func TestManifestBuildInfo(t *testing.T) {
	m := NewManifest("test")
	if m.Env.Module != "sdbp" {
		t.Errorf("Env.Module = %q, want sdbp", m.Env.Module)
	}
	if m.Env.ModVersion == "" {
		t.Error("Env.ModVersion empty; want a version (usually \"(devel)\")")
	}
	b, err := json.Marshal(m.Env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"module":"sdbp"`)) {
		t.Errorf("env JSON missing module stamp: %s", b)
	}
}

func TestManifestWriteFile(t *testing.T) {
	r := NewRegistry()
	fill(r)
	m := NewManifest("test")
	m.Flags = map[string]string{"scale": "0.01"}
	m.FillFromRegistry(r)
	m.Timing.Started = time.Time{}.Format(time.RFC3339Nano)

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 || b[len(b)-1] != '\n' {
		t.Error("manifest file should end in a newline")
	}
	var back Manifest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if back.Schema != ManifestSchema || back.Tool != "test" {
		t.Errorf("round-trip = schema %d tool %q", back.Schema, back.Tool)
	}
	if back.Sim.Jobs != m.Sim.Jobs {
		t.Errorf("jobs did not round-trip: %+v vs %+v", back.Sim.Jobs, m.Sim.Jobs)
	}
}
