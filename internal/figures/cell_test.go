package figures

import (
	"sync"
	"testing"

	"sdbp/internal/exp"
	"sdbp/internal/obs"
	"sdbp/internal/sim"
)

// TestEnvMemoRunsEachCellOnce pins the memo contract: a cell repeated
// within one request or across requests on one Env is not a runner
// job, a failed cell is not memoized (it runs again when asked again),
// and a fresh Env shares nothing with the last one.
func TestEnvMemoRunsEachCellOnce(t *testing.T) {
	benches := pick(t, "456.hmmer")
	specs := []exp.Policy{LRUSpec(), labeled("LRU again", "lru"), faultySpec()}
	opts := sim.SingleOptions{Scale: tinyScale}
	reg := obs.NewRegistry()
	env := &Env{Obs: reg}
	submitted := func() uint64 { return reg.CounterValue(obs.CtrJobsSubmitted) }

	m := RunMatrixEnv(env, benches, specs, opts)
	if got := submitted(); got != 2 {
		t.Errorf("first request submitted %d jobs, want 2 (the repeated LRU cell runs once)", got)
	}
	if a, b := m.Get("456.hmmer", "LRU"), m.Get("456.hmmer", "LRU again"); a.Instructions == 0 || a.MPKI != b.MPKI {
		t.Errorf("repeated cell columns disagree: %+v vs %+v", a, b)
	}

	RunMatrixEnv(env, benches, specs, opts)
	if got := submitted(); got != 3 {
		t.Errorf("repeat request brought submissions to %d, want 3 (only the failed cell runs again)", got)
	}
	if got := len(env.Failures()); got != 2 {
		t.Errorf("failures = %d, want 2 (the faulty cell, once per request)", got)
	}

	fresh := &Env{Obs: obs.NewRegistry()}
	RunMatrixEnv(fresh, benches, specs[:1], opts)
	if got := fresh.Obs.CounterValue(obs.CtrJobsSubmitted); got != 1 {
		t.Errorf("fresh Env submitted %d jobs, want 1", got)
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
