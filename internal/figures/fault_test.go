package figures

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/runner"
	"sdbp/internal/sampling"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// faultySpec is an injected policy whose construction panics, the way
// a bad geometry or sampler config does in production code. Its Expr
// is test-only: it names the faulty cells apart from every real one.
func faultySpec() exp.Policy {
	return exp.Policy{Name: "Faulty", Expr: "test-faulty", Make: func(int) cache.Policy {
		panic("injected: invalid policy configuration")
	}}
}

// TestFaultInjectionMatrix is the acceptance scenario: a panicking
// policy in a full 29-benchmark matrix must not abort the sweep. Every
// other cell completes, the failed cells render as ERR, and the
// environment reports the failures for a non-zero exit.
func TestFaultInjectionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	env := DefaultEnv()
	benches := sortedNames(workloads.All()) // all 29 benchmarks
	specs := []exp.Policy{LRUSpec(), faultySpec()}
	m := RunMatrixEnv(env, benches, specs, sim.SingleOptions{Scale: tinyScale})

	if len(m.Benchmarks) != 29 {
		t.Fatalf("benchmarks = %d, want 29", len(m.Benchmarks))
	}
	for _, b := range m.Benchmarks {
		if m.Err(b, "LRU") != nil {
			t.Errorf("healthy cell (%s, LRU) failed: %v", b, m.Err(b, "LRU"))
		}
		if m.Get(b, "LRU").Instructions == 0 {
			t.Errorf("healthy cell (%s, LRU) empty", b)
		}
		if m.Err(b, "Faulty") == nil {
			t.Errorf("faulty cell (%s, Faulty) did not report its panic", b)
		}
		if !strings.Contains(m.Err(b, "Faulty").Error(), "injected") {
			t.Errorf("faulty cell error lost the panic value: %v", m.Err(b, "Faulty"))
		}
	}
	if !env.Failed() {
		t.Error("environment did not record the failures")
	}
	if got := len(env.Failures()); got != 29 {
		t.Errorf("failures = %d, want 29", got)
	}

	// A renderer over the damaged matrix must mark the cells ERR and
	// still print real values for the healthy baseline.
	rb := &RandomBaseline{Matrix: m, LRU: m}
	out := rb.RenderFig7()
	if !strings.Contains(out, "ERR") {
		t.Errorf("render does not mark failed cells:\n%s", out)
	}
	if !strings.Contains(out, "1.000") { // LRU normalized to itself
		t.Errorf("render lost healthy cells:\n%s", out)
	}
}

// TestHungJobTimeoutInMatrix drives the per-job timeout through the
// figures path: with an impossibly small timeout every cell times out,
// renders ERR, and the sweep still completes.
func TestHungJobTimeoutInMatrix(t *testing.T) {
	env := DefaultEnv()
	env.Timeout = time.Nanosecond
	benches := sortedNames(workloads.Subset())[:2]
	m := RunMatrixEnv(env, benches, []exp.Policy{LRUSpec()}, sim.SingleOptions{Scale: tinyScale})
	for _, b := range m.Benchmarks {
		if m.Err(b, "LRU") == nil {
			t.Errorf("cell (%s, LRU) beat a 1ns timeout", b)
		}
	}
	for _, f := range env.Failures() {
		if !f.TimedOut {
			t.Errorf("%s failed without TimedOut: %v", f.Key, f.Err)
		}
	}
}

// TestMatrixDeterministicUnderParallelism guards the paper's
// reproducibility claim against result-map races: two parallel sweeps
// must produce identical results. Run under -race in CI.
func TestMatrixDeterministicUnderParallelism(t *testing.T) {
	benches := sortedNames(workloads.Subset())[:4]
	specs := append([]exp.Policy{LRUSpec()}, StandardPolicies()[:2]...)
	run := func() *Matrix {
		m := RunMatrixEnv(DefaultEnv(), benches, specs, sim.SingleOptions{Scale: tinyScale})
		// Duration is wall-clock observability metadata, not simulated
		// work; normalize it the way the golden tests strip section
		// footers.
		for k, r := range m.Results {
			r.Duration = 0
			m.Results[k] = r
		}
		return m
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Error("parallel sweeps disagree")
	}
	if len(a.Errors) != 0 || len(b.Errors) != 0 {
		t.Errorf("unexpected failures: %v %v", a.Errors, b.Errors)
	}
}

// TestResumeRendersByteForByte checks the checkpoint/resume contract:
// a resumed sweep restores every cell from the journal (the tripwire
// specs panic if any cell re-runs) and renders exactly the same table
// as the uninterrupted run.
func TestResumeRendersByteForByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "figures.ckpt")
	benches := sortedNames(workloads.Subset())[:3]
	specs := append([]exp.Policy{LRUSpec()}, StandardPolicies()[:2]...)
	opts := sim.SingleOptions{Scale: tinyScale}

	ck, err := runner.OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	env1 := DefaultEnv()
	env1.Checkpoint = ck
	m1 := RunMatrixEnv(env1, benches, specs, opts)
	rb1 := &RandomBaseline{Matrix: m1, LRU: m1}
	first := rb1.RenderFig7() + rb1.RenderFig8()
	if env1.Failed() {
		t.Fatalf("baseline run failed: %v", env1.Failures())
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := runner.OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	// Each tripwire keeps the Expr of the cell it stands in for, so it
	// names the same checkpointed cell.
	tripwire := make([]exp.Policy, len(specs))
	for i, s := range specs {
		tripwire[i] = exp.Policy{Name: s.Name, Expr: s.Expr, Make: func(int) cache.Policy {
			panic("cell re-ran despite checkpoint")
		}}
	}
	env2 := DefaultEnv()
	env2.Checkpoint = ck2
	m2 := RunMatrixEnv(env2, benches, tripwire, opts)
	if env2.Failed() {
		t.Fatalf("resume re-ran checkpointed cells: %v", env2.Failures())
	}
	rb2 := &RandomBaseline{Matrix: m2, LRU: m2}
	second := rb2.RenderFig7() + rb2.RenderFig8()
	if first != second {
		t.Errorf("resumed render differs from uninterrupted run:\n--- first\n%s\n--- resumed\n%s", first, second)
	}
}

// TestResumeRecomputesOnlyFailedCells is the second half of the
// acceptance scenario: after a run with an injected fault, a -resume
// run re-executes exactly the failed cells and heals the matrix.
func TestResumeRecomputesOnlyFailedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heal.ckpt")
	benches := sortedNames(workloads.Subset())[:3]
	opts := sim.SingleOptions{Scale: tinyScale}

	ck, err := runner.OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	env1 := DefaultEnv()
	env1.Checkpoint = ck
	m1 := RunMatrixEnv(env1, benches, []exp.Policy{LRUSpec(), faultySpec()}, opts)
	if len(m1.Errors) != 3 {
		t.Fatalf("first run failed cells = %d, want 3", len(m1.Errors))
	}
	ck.Close()

	// Resume with the fault fixed: the healthy cells must come from the
	// checkpoint (LRU tripwire), only the previously failed cells run.
	// Both specs keep the Expr of the cell they stand in for.
	ck2, err := runner.OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	healed := []exp.Policy{
		{Name: "LRU", Expr: LRUSpec().Expr, Make: func(int) cache.Policy { panic("healthy cell re-ran despite checkpoint") }},
		{Name: "Faulty", Expr: faultySpec().Expr, Make: StandardPolicies()[0].Make}, // the "fixed config"
	}
	env2 := DefaultEnv()
	env2.Checkpoint = ck2
	m2 := RunMatrixEnv(env2, benches, healed, opts)
	if env2.Failed() {
		t.Fatalf("healed resume failed: %v", env2.Failures())
	}
	for _, b := range m2.Benchmarks {
		if m2.Get(b, "LRU").Instructions == 0 {
			t.Errorf("checkpointed cell (%s, LRU) lost", b)
		}
		if m2.Get(b, "Faulty").Instructions == 0 {
			t.Errorf("recomputed cell (%s, Faulty) empty", b)
		}
	}
}

// TestSampledReplayPanicFailsJob pins the concurrent per-policy replay
// of a sampled job: cells come back in spec order, identical to
// replaying the policies one after another, and a policy that panics
// fails the benchmark with its panic value instead of crashing the
// process from a replay goroutine.
func TestSampledReplayPanicFailsJob(t *testing.T) {
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.SingleOptions{Scale: tinyScale}
	plan, err := sim.SelectPlan(w, LRUSpec().Make(1), opts, 5_000, sampling.Config{Clusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := sim.MaterializeSampled(w, &plan, tinyScale)
	if err != nil {
		t.Fatal(err)
	}

	specs := []exp.Policy{LRUSpec(), preset("Sampler"), preset("SHiP")}
	cells, err := replayPolicies(mat, specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		res, err := sim.RunSampledTrace(mat, spec.Make(1), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := SampledCell{Bench: w.Name, Policy: spec.Name, Estimate: res.Estimate}
		if !reflect.DeepEqual(cells[i], want) {
			t.Errorf("cell %d = %+v, want %+v", i, cells[i], want)
		}
	}

	_, err = replayPolicies(mat, []exp.Policy{LRUSpec(), faultySpec()}, opts)
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("replay with a panicking policy returned %v, want the panic as an error", err)
	}
}
