package figures

import (
	"strings"
	"testing"

	"sdbp/internal/exp"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// tinyScale keeps the harness smoke tests fast; figure values at this
// scale are not meaningful, only plumbing is under test.
const tinyScale = 0.01

func TestRunMatrixCoversAllCells(t *testing.T) {
	benches := sortedNames(workloads.Subset())[:3]
	specs := append([]exp.Policy{LRUSpec()}, StandardPolicies()[:2]...)
	m := RunMatrixEnv(DefaultEnv(), benches, specs, sim.SingleOptions{Scale: tinyScale})
	if len(m.Benchmarks) != 3 || len(m.Policies) != 3 {
		t.Fatalf("matrix %dx%d", len(m.Benchmarks), len(m.Policies))
	}
	for _, b := range m.Benchmarks {
		for _, p := range m.Policies {
			if m.Get(b, p).Instructions == 0 {
				t.Errorf("cell (%s,%s) empty", b, p)
			}
		}
	}
}

func TestMatrixSeries(t *testing.T) {
	benches := sortedNames(workloads.Subset())[:2]
	m := RunMatrixEnv(DefaultEnv(), benches, []exp.Policy{LRUSpec()}, sim.SingleOptions{Scale: tinyScale})
	s := m.Series("LRU", func(r sim.SingleResult) float64 { return r.MPKI })
	if len(s) != 2 || s[0] <= 0 {
		t.Errorf("series = %v", s)
	}
}

func TestSingleCoreRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	sc := RunSingleCoreEnv(DefaultEnv(), tinyScale)
	for name, out := range map[string]string{
		"fig4":  sc.RenderFig4(),
		"fig5":  sc.RenderFig5(),
		"fig9":  sc.RenderFig9(),
		"claim": sc.RenderClaim(),
	} {
		if len(out) == 0 {
			t.Errorf("%s rendered empty", name)
		}
	}
	if !strings.Contains(sc.RenderFig4(), "amean") {
		t.Error("fig4 missing the mean row")
	}
	if !strings.Contains(sc.RenderFig5(), "gmean") {
		t.Error("fig5 missing the mean row")
	}
	if len(sc.OptimalMPKI) != 19 {
		t.Errorf("optimal MPKI for %d benchmarks, want 19", len(sc.OptimalMPKI))
	}
	// MIN must not lose to LRU on any benchmark.
	for _, b := range sc.Matrix.Benchmarks {
		if sc.OptimalMPKI[b] > sc.Matrix.Get(b, "LRU").MPKI*1.001 {
			t.Errorf("%s: optimal MPKI %.2f above LRU %.2f",
				b, sc.OptimalMPKI[b], sc.Matrix.Get(b, "LRU").MPKI)
		}
	}
}

func TestStandardPoliciesComplete(t *testing.T) {
	want := []string{"TDBP", "CDBP", "DIP", "RRIP", "Sampler"}
	got := StandardPolicies()
	if len(got) != len(want) {
		t.Fatalf("policies = %d", len(got))
	}
	for i, spec := range got {
		if spec.Name != want[i] {
			t.Errorf("policy %d = %s, want %s", i, spec.Name, want[i])
		}
		if spec.Make(1) == nil {
			t.Errorf("%s builds nil", spec.Name)
		}
	}
}

func TestTable1ContainsPaperValues(t *testing.T) {
	out := RenderTable1()
	for _, want := range []string{"reftrace", "72.00", "counting", "108.00", "sampler"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	out := RenderTable2()
	if !strings.Contains(out, "baseline 2MB LLC") {
		t.Errorf("Table II missing baseline:\n%s", out)
	}
}

func TestFig1Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	f := RunFig1Env(DefaultEnv(), 0.05)
	if f.SamplerEfficiency <= f.LRUEfficiency {
		t.Errorf("sampler efficiency %.2f not above LRU %.2f",
			f.SamplerEfficiency, f.LRUEfficiency)
	}
	if out := f.Render(); !strings.Contains(out, "Figure 1") {
		t.Error("render missing title")
	}
}

func TestTable4CurvesMonotoneish(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	t4 := RunTable4Env(DefaultEnv(), tinyScale)
	if len(t4.Curves) != 10 {
		t.Fatalf("curves = %d", len(t4.Curves))
	}
	for mix, curve := range t4.Curves {
		if len(curve) != len(SensitivitySizes) {
			t.Fatalf("%s curve has %d points", mix, len(curve))
		}
		// Bigger caches can only help: the last point must not exceed
		// the first.
		if curve[len(curve)-1] > curve[0] {
			t.Errorf("%s: MPKI grew with capacity (%.2f -> %.2f)",
				mix, curve[0], curve[len(curve)-1])
		}
	}
}
