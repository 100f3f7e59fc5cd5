package main

// Manifest tests: the -metrics reconciliation and determinism
// acceptance checks for the observability layer. The full-suite cases
// re-run the whole scale-0.01 campaign and are skipped under -short;
// CI runs them in the golden/manifest step.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"

	"sdbp/internal/obs"
)

// runManifest drives the command in-process with -metrics and returns
// the decoded manifest plus its raw bytes.
func runManifest(t *testing.T, args ...string) (obs.Manifest, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "manifest.json")
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-quiet", "-metrics", path), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("experiments %v exited %d\nstderr:\n%s", args, code, stderr.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	return m, b
}

// checkReconciles asserts the manifest's internal invariants: cache
// counters balance at every level, the hierarchy filters correctly,
// and job accounting adds up.
func checkReconciles(t *testing.T, m obs.Manifest) {
	t.Helper()
	c := func(name string) uint64 { return m.Sim.Counters[obs.SimPrefix+name] }
	for _, level := range []string{"l1", "l2", "llc"} {
		hits, misses, acc := c(level+"_hits"), c(level+"_misses"), c(level+"_accesses")
		if hits+misses != acc {
			t.Errorf("%s: hits(%d)+misses(%d) != accesses(%d)", level, hits, misses, acc)
		}
		if acc == 0 {
			t.Errorf("%s recorded no accesses", level)
		}
	}
	// Demand filtering down the hierarchy: each level sees the misses
	// of the level above.
	if c("l2_accesses") != c("l1_misses") {
		t.Errorf("l2 accesses (%d) != l1 misses (%d)", c("l2_accesses"), c("l1_misses"))
	}
	if c("llc_accesses") != c("l2_misses") {
		t.Errorf("llc accesses (%d) != l2 misses (%d)", c("llc_accesses"), c("l2_misses"))
	}
	j := m.Sim.Jobs
	if j.Submitted != j.Succeeded+j.Failed+j.FromCheckpoint {
		t.Errorf("job accounting: %d submitted != %d+%d+%d", j.Submitted, j.Succeeded, j.Failed, j.FromCheckpoint)
	}
	if j.Failed != 0 {
		t.Errorf("%d jobs failed in a healthy run", j.Failed)
	}
	if h, ok := m.Timing.Histograms[obs.HistJobSeconds]; !ok || h.Count != j.Succeeded+j.Failed-j.Drained {
		t.Errorf("job-seconds count = %+v, want %d executed jobs", h, j.Succeeded+j.Failed-j.Drained)
	}
	// sim_runs + sim_multicore_runs live results each observed one
	// duration.
	if h := m.Timing.Histograms[obs.SimPrefix+"run_seconds"]; h.Count != c("runs")+c("multicore_runs") {
		t.Errorf("run_seconds count = %d, want %d runs", h.Count, c("runs")+c("multicore_runs"))
	}
}

// TestManifestSubsetReconciles is the fast path: two light sections,
// full invariant check, schema sanity.
func TestManifestSubsetReconciles(t *testing.T) {
	m, _ := runManifest(t, "-scale", goldenScale, "-only", "fig1,fig9")
	if m.Schema != obs.ManifestSchema || m.Tool != "experiments" {
		t.Errorf("schema/tool = %d/%q", m.Schema, m.Tool)
	}
	if m.Flags["scale"] != goldenScale || m.Flags["only"] != "fig1,fig9" {
		t.Errorf("flags not recorded: %v", m.Flags)
	}
	if m.Sim.Config["sections"] != "fig1,fig9" {
		t.Errorf("sections = %q, want fig1,fig9", m.Sim.Config["sections"])
	}
	checkReconciles(t, m)
	if len(m.Timing.Sections) != 2 {
		t.Errorf("section spans = %+v, want 2", m.Timing.Sections)
	}
	if m.Timing.Gauges[obs.SimPrefix+"accesses_per_sec"] <= 0 {
		t.Error("accesses_per_sec gauge missing")
	}
	if ipc := m.Timing.Gauges[obs.SimPrefix+"aggregate_ipc"]; ipc <= 0 || ipc > 4 {
		t.Errorf("aggregate_ipc = %v", ipc)
	}
}

// rawSim extracts the raw bytes of the manifest's "sim" member — the
// deterministic section — without re-encoding them.
func rawSim(t *testing.T, manifest []byte) []byte {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(manifest, &top); err != nil {
		t.Fatal(err)
	}
	sim, ok := top["sim"]
	if !ok {
		t.Fatal("manifest has no sim section")
	}
	return sim
}

// TestManifestFullSuiteDeterministic is the acceptance test: a full
// scale-0.01 run's simulation section must reconcile exactly and be
// byte-identical across runs and across GOMAXPROCS=1 vs the default
// parallelism — worker scheduling must not leak into the deterministic
// counters. The GOMAXPROCS=1 run also journals to a fresh -checkpoint,
// which must not change the work done: it restores nothing, journals
// every job it submits, and leaves the sim section byte-identical.
func TestManifestFullSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full suite runs take ~30s; run without -short (CI has a dedicated step)")
	}
	prev := runtime.GOMAXPROCS(8)
	m1, b1 := runManifest(t, "-scale", goldenScale)
	checkReconciles(t, m1)
	if m1.Sim.Jobs.FromCheckpoint != 0 {
		t.Errorf("fresh run restored %d jobs from checkpoint", m1.Sim.Jobs.FromCheckpoint)
	}

	runtime.GOMAXPROCS(1)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	m2, b2 := runManifest(t, "-scale", goldenScale, "-checkpoint", ckpt)
	runtime.GOMAXPROCS(prev)
	checkReconciles(t, m2)
	if m2.Sim.Jobs.FromCheckpoint != 0 {
		t.Errorf("run with a fresh checkpoint restored %d jobs from it", m2.Sim.Jobs.FromCheckpoint)
	}
	journal, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if lines := uint64(bytes.Count(journal, []byte("\n"))); m2.Sim.Jobs.Submitted != lines {
		t.Errorf("submitted %d jobs but journaled %d", m2.Sim.Jobs.Submitted, lines)
	}

	s1, s2 := rawSim(t, b1), rawSim(t, b2)
	if !bytes.Equal(s1, s2) {
		t.Errorf("sim sections differ between GOMAXPROCS=8 and GOMAXPROCS=1 with -checkpoint:\n%s\n---\n%s",
			s1, s2)
	}
}

var pprofLine = regexp.MustCompile(`pprof: serving on (http://[^/]+)/`)

// TestPprofEndpoint starts the suite with -pprof on an ephemeral port
// and fetches the index from the address announced on stderr.
func TestPprofEndpoint(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "table1", "-quiet", "-pprof", "127.0.0.1:0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exited %d\nstderr:\n%s", code, stderr.String())
	}
	m := pprofLine.FindSubmatch(stderr.Bytes())
	if m == nil {
		t.Fatalf("no pprof address announced:\n%s", stderr.String())
	}
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/", m[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index: status %d, body %.100s", resp.StatusCode, body)
	}
}
