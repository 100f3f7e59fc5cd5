package figures

import (
	"path/filepath"
	"sync"
	"testing"

	"sdbp/internal/exp"
	"sdbp/internal/obs"
	"sdbp/internal/runner"
	"sdbp/internal/sim"
	"sdbp/internal/stats"
	"sdbp/internal/workloads"
)

// TestEnvMemoRunsEachCellOnce pins the memo contract: a cell repeated
// within one request or across requests on one Env is not a runner
// job, and a fresh Env shares nothing with the last one.
func TestEnvMemoRunsEachCellOnce(t *testing.T) {
	benches := pick(t, "456.hmmer")
	specs := []exp.Policy{LRUSpec(), labeled("LRU again", "lru")}
	opts := sim.SingleOptions{Scale: tinyScale}
	reg := obs.NewRegistry()
	env := &Env{Obs: reg}
	submitted := func() uint64 { return reg.CounterValue(obs.CtrJobsSubmitted) }

	m := RunMatrixEnv(env, benches, specs, opts)
	if got := submitted(); got != 1 {
		t.Errorf("first request submitted %d jobs, want 1 (the repeated LRU cell runs once)", got)
	}
	if a, b := m.Get("456.hmmer", "LRU"), m.Get("456.hmmer", "LRU again"); a.Instructions == 0 || a.MPKI != b.MPKI {
		t.Errorf("repeated cell columns disagree: %+v vs %+v", a, b)
	}

	RunMatrixEnv(env, benches, specs, opts)
	if got := submitted(); got != 1 {
		t.Errorf("repeat request brought submissions to %d, want 1", got)
	}

	fresh := &Env{Obs: obs.NewRegistry()}
	RunMatrixEnv(fresh, benches, specs[:1], opts)
	if got := fresh.Obs.CounterValue(obs.CtrJobsSubmitted); got != 1 {
		t.Errorf("fresh Env submitted %d jobs, want 1", got)
	}
}

// TestEnvMemoRemembersFailures: when two sweeps on one Env request the
// same faulty cell, it runs once and fails once, the second sweep gets
// the same failure back, and the checkpoint journal stays free of it
// so a resumed campaign recomputes it.
func TestEnvMemoRemembersFailures(t *testing.T) {
	benches := pick(t, "456.hmmer")
	opts := sim.SingleOptions{Scale: tinyScale}
	ck, err := runner.OpenCheckpoint(filepath.Join(t.TempDir(), "memo.ckpt"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	reg := obs.NewRegistry()
	env := &Env{Obs: reg, Checkpoint: ck}

	first := RunMatrixEnv(env, benches, []exp.Policy{faultySpec()}, opts)
	second := RunMatrixEnv(env, benches, []exp.Policy{LRUSpec(), faultySpec()}, opts)
	if got := reg.CounterValue(obs.CtrJobsSubmitted); got != 2 {
		t.Errorf("runner submissions = %d, want 2 (the faulty cell once, LRU once)", got)
	}
	if got := len(env.Failures()); got != 1 {
		t.Errorf("failures = %d, want 1 (the faulty cell, once)", got)
	}
	e1, e2 := first.Err("456.hmmer", "Faulty"), second.Err("456.hmmer", "Faulty")
	if e1 == nil || e1 != e2 {
		t.Errorf("second sweep's faulty cell error = %v, want the first sweep's %v", e2, e1)
	}
	if second.Err("456.hmmer", "LRU") != nil || second.Get("456.hmmer", "LRU").Instructions == 0 {
		t.Errorf("healthy LRU cell beside the memoized failure did not run: %v", second.Err("456.hmmer", "LRU"))
	}
	if got := ck.Len(); got != 1 {
		t.Errorf("checkpoint journal holds %d cells, want 1 (the LRU success only)", got)
	}
}

// TestEnvMemoConcurrentRequests shares one Env's memo among requests
// from several goroutines at once (run under -race): every request
// reads the same result.
func TestEnvMemoConcurrentRequests(t *testing.T) {
	env := DefaultEnv()
	benches := pick(t, "456.hmmer")
	ms := make([]*Matrix, 4)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[i] = RunMatrixEnv(env, benches, []exp.Policy{LRUSpec()}, sim.SingleOptions{Scale: tinyScale})
		}()
	}
	wg.Wait()
	want := ms[0].Get("456.hmmer", "LRU")
	for i, m := range ms {
		if got := m.Get("456.hmmer", "LRU"); got.Instructions == 0 || got.MPKI != want.MPKI {
			t.Errorf("request %d read %+v, want %+v", i, got, want)
		}
	}
}

// TestAdhocReusesFigureCells pins that an ad-hoc run of a preset over
// a subset benchmark is the figure sweep's cells: after Figure 4's
// sweep on the same Env it submits no job and reads the same results.
func TestAdhocReusesFigureCells(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	reg := obs.NewRegistry()
	env := &Env{Obs: reg}
	sc := RunSingleCoreEnv(env, tinyScale)
	before := reg.CounterValue(obs.CtrJobsSubmitted)

	r, err := exp.Spec{Policy: "Sampler", Workloads: []string{"429.mcf"}, Scale: tinyScale}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	a := RunAdhocEnv(env, r)
	if got := reg.CounterValue(obs.CtrJobsSubmitted) - before; got != 0 {
		t.Errorf("ad-hoc run after the figure sweep submitted %d jobs, want 0", got)
	}
	for _, col := range []string{"LRU", "Sampler"} {
		got, want := a.Matrix.Get("429.mcf", col), sc.Matrix.Get("429.mcf", col)
		if got.Instructions == 0 || got.MPKI != want.MPKI || got.IPC != want.IPC {
			t.Errorf("ad-hoc %s cell %+v differs from the figure's %+v", col, got, want)
		}
	}
}

// TestSweepsReuseSamplerCells: the sweeps' sets-32 and thr-8 points are
// the paper's Sampler spelled with a default knob written out, so they
// carry Sampler's cell key. After Sampler ran on an Env, the two
// sweeps at those points submit no job and read Sampler's results.
func TestSweepsReuseSamplerCells(t *testing.T) {
	reg := obs.NewRegistry()
	env := &Env{Obs: reg}
	opts := sim.SingleOptions{Scale: tinyScale}
	m := RunMatrixEnv(env, sortedNames(workloads.Subset()), []exp.Policy{LRUSpec(), preset("Sampler")}, opts)
	before := reg.CounterValue(obs.CtrJobsSubmitted)
	sets := SamplerSetsSweepEnv(env, tinyScale, []int{32})
	thr := ThresholdSweepEnv(env, tinyScale, []int{8})
	if got := reg.CounterValue(obs.CtrJobsSubmitted) - before; got != 0 {
		t.Errorf("sweeps at sets 32 and threshold 8 submitted %d jobs after Sampler ran, want 0", got)
	}
	lru := m.Series("LRU", func(r sim.SingleResult) float64 { return r.IPC })
	want := geoMeanFinite(stats.Normalize(m.Series("Sampler", func(r sim.SingleResult) float64 { return r.IPC }), lru))
	if sets[32] != want || thr[8] != want {
		t.Errorf("sweep points sets-32 %v and thr-8 %v, want Sampler's gmean speedup %v", sets[32], thr[8], want)
	}
}
