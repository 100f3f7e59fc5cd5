package figures

import (
	"math"
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/obs"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// TestMatrixObsReconciles is the figures-level acceptance check: run a
// small benchmarks × policies matrix with an observed Env and verify
// every sim_* level counter in the registry equals the sum of the
// corresponding cache.Stats field over the matrix's results — the
// "manifest reconciles exactly with cache.Stats" contract, one layer
// below cmd/experiments.
func TestMatrixObsReconciles(t *testing.T) {
	reg := obs.NewRegistry()
	env := &Env{Obs: reg}
	benches := pick(t, "456.hmmer", "401.bzip2", "429.mcf")
	specs := []exp.Policy{LRUSpec(), StandardPolicies()[1]}
	m := RunMatrixEnv(env, benches, specs, sim.SingleOptions{Scale: tinyScale})
	if env.Failed() {
		t.Fatalf("matrix failed: %v", env.Failures())
	}

	cells := len(benches) * len(specs)
	if got := reg.CounterValue(obs.CtrJobsSubmitted); got != uint64(cells) {
		t.Errorf("jobs submitted = %d, want %d", got, cells)
	}
	if got := reg.CounterValue(obs.CtrJobsSucceeded); got != uint64(cells) {
		t.Errorf("jobs succeeded = %d, want %d", got, cells)
	}
	if got := reg.CounterValue(obs.SimPrefix + "runs"); got != uint64(cells) {
		t.Errorf("sim_runs = %d, want %d", got, cells)
	}

	// Ground truth: sum the per-level stats over every cell result.
	var l1, l2, llc cache.Stats
	var instr, cycles uint64
	for _, r := range m.Results {
		l1 = l1.Add(r.L1)
		l2 = l2.Add(r.L2)
		llc = llc.Add(r.LLC)
		instr += r.Instructions
		cycles += r.Cycles
	}
	for level, want := range map[string]cache.Stats{"l1": l1, "l2": l2, "llc": llc} {
		pfx := obs.SimPrefix + level + "_"
		got := cache.Stats{
			Accesses:         reg.CounterValue(pfx + "accesses"),
			Writes:           reg.CounterValue(pfx + "writes"),
			Hits:             reg.CounterValue(pfx + "hits"),
			Misses:           reg.CounterValue(pfx + "misses"),
			Bypasses:         reg.CounterValue(pfx + "bypasses"),
			Evictions:        reg.CounterValue(pfx + "evictions"),
			Writebacks:       reg.CounterValue(pfx + "writebacks"),
			Prefetches:       reg.CounterValue(pfx + "prefetches"),
			UsefulPrefetches: reg.CounterValue(pfx + "useful_prefetches"),
		}
		if got != want {
			t.Errorf("%s counters = %+v\nwant (summed over results) %+v", level, got, want)
		}
		if got.Hits+got.Misses != got.Accesses {
			t.Errorf("%s: hits+misses != accesses in registry", level)
		}
	}
	if got := reg.CounterValue(obs.SimPrefix + "instructions"); got != instr {
		t.Errorf("sim_instructions = %d, want %d", got, instr)
	}
	if got := reg.CounterValue(obs.SimPrefix + "cycles"); got != cycles {
		t.Errorf("sim_cycles = %d, want %d", got, cycles)
	}
	if got := reg.Histogram(obs.SimPrefix + "run_seconds").Count(); got != uint64(cells) {
		t.Errorf("run_seconds observations = %d, want %d", got, cells)
	}
}

// TestMatrixObsNilRegistry pins that an unobserved Env still works —
// the nil-safety contract at the layer that actually exercises it.
func TestMatrixObsNilRegistry(t *testing.T) {
	env := DefaultEnv() // Obs nil
	m := RunMatrixEnv(env, pick(t, "456.hmmer"),
		[]exp.Policy{LRUSpec()}, sim.SingleOptions{Scale: tinyScale})
	if m.Get("456.hmmer", "LRU").Instructions == 0 {
		t.Error("unobserved matrix produced no result")
	}
}

// TestAggregateHelpersNonFinite covers the finite/meanFinite/
// geoMeanFinite/fmtVal path failed cells flow through.
func TestAggregateHelpersNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	xs := []float64{1, nan, 4, inf, math.Inf(-1)}

	if got := finite(xs); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Errorf("finite = %v, want [1 4]", got)
	}
	if got := meanFinite(xs); got != 2.5 {
		t.Errorf("meanFinite = %v, want 2.5", got)
	}
	if got := geoMeanFinite(xs); got != 2 {
		t.Errorf("geoMeanFinite = %v, want 2", got)
	}
	// All-failed rows come back as ERR (NaN), not zero.
	if got := meanFinite([]float64{nan, inf}); !math.IsNaN(got) {
		t.Errorf("meanFinite(all failed) = %v, want NaN", got)
	}
	if got := geoMeanFinite(nil); !math.IsNaN(got) {
		t.Errorf("geoMeanFinite(empty) = %v, want NaN", got)
	}
	if got := fmtVal("%.2f", nan); got != "ERR" {
		t.Errorf("fmtVal(NaN) = %q, want ERR", got)
	}
	if got := fmtVal("%.2f", inf); got != "ERR" {
		t.Errorf("fmtVal(Inf) = %q, want ERR", got)
	}
	if got := fmtVal("%.2f", 1.234); got != "1.23" {
		t.Errorf("fmtVal = %q, want 1.23", got)
	}
}

// pick resolves benchmarks by name, failing the test on a typo.
func pick(t *testing.T, names ...string) []workloads.Workload {
	t.Helper()
	out := make([]workloads.Workload, 0, len(names))
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}
