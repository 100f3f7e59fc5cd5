package figures

import (
	"strings"
	"testing"

	"sdbp/internal/exp"
)

func TestExtensionPoliciesBuild(t *testing.T) {
	for _, spec := range ExtensionPolicies() {
		if spec.Make(1) == nil {
			t.Errorf("%s builds nil", spec.Name)
		}
	}
}

func TestExtensionsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	e := RunExtensions(tinyScale)
	out := e.Render()
	for _, want := range []string{"Bursts", "AIP", "SmpCount", "PLRU", "amean MPKI", "gmean speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("extensions render missing %q", want)
		}
	}
}

func TestPrefetchStudyRender(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	st := RunPrefetchStudy(tinyScale)
	if len(st.Benchmarks) != 19 {
		t.Fatalf("benchmarks = %d", len(st.Benchmarks))
	}
	for _, cfg := range []string{"LRU", "LRU+PF", "Sampler", "Sampler+PF"} {
		if len(st.Results[cfg]) != 19 {
			t.Errorf("config %s has %d results", cfg, len(st.Results[cfg]))
		}
	}
	if out := st.Render(); !strings.Contains(out, "amean") {
		t.Error("prefetch render missing the mean row")
	}
}

func TestVictimStudyRender(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	st := RunVictimStudy(tinyScale)
	if len(st.Results["unfiltered"]) != 19 || len(st.Results["dead-filtered"]) != 19 {
		t.Fatal("incomplete victim study")
	}
	if out := st.Render(); !strings.Contains(out, "hits/ins") {
		t.Error("victim render missing yield columns")
	}
}

func TestSweepsProduceAllPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	sets := []int{16, 32}
	res := SamplerSetsSweep(tinyScale, sets)
	for _, n := range sets {
		if res[n] <= 0 {
			t.Errorf("set sweep missing %d", n)
		}
	}
	thrs := []int{2, 8}
	res2 := ThresholdSweep(tinyScale, thrs)
	for _, th := range thrs {
		if res2[th] <= 0 {
			t.Errorf("threshold sweep missing %d", th)
		}
	}
	out := RenderSweep("t", "k", res, sets)
	if !strings.Contains(out, "16") || !strings.Contains(out, "32") {
		t.Error("sweep render incomplete")
	}
}

func TestAblationRunsAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	ab := RunAblation(tinyScale)
	if len(ab.Speedup) != len(AblationOrder) {
		t.Fatalf("variants = %d", len(ab.Speedup))
	}
	for _, name := range AblationOrder {
		if ab.Speedup[name] <= 0 {
			t.Errorf("variant %s has no speedup value", name)
		}
	}
}

func TestMulticoreFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	mc := RunMulticoreFigure([]exp.Policy{MulticorePolicies()[4]}, 0.002) // Sampler only
	if len(mc.Mixes) != 10 {
		t.Fatalf("mixes = %d", len(mc.Mixes))
	}
	for _, mix := range mc.Mixes {
		v := mc.WeightedSpeedup["Sampler"][mix]
		if v <= 0 || v > 5 {
			t.Errorf("%s normalized weighted speedup = %v", mix, v)
		}
	}
	if out := mc.Render("test"); !strings.Contains(out, "gmean") {
		t.Error("multicore render missing the mean row")
	}
}
