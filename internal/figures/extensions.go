package figures

import (
	"fmt"

	"sdbp/internal/exp"
	"sdbp/internal/sim"
	"sdbp/internal/stats"
	"sdbp/internal/workloads"
)

// The extension experiments go beyond the paper's figures: the
// related-work predictors it discusses but does not plot (cache bursts,
// AIP), its stated future work (the sampling counting predictor), the
// pseudo-LRU/NRU base policies real LLCs use, and design-space sweeps
// over the sampler's set count and prediction threshold.

// ExtensionPolicies returns the extension comparison set (labels are
// abbreviated to fit the table's columns).
func ExtensionPolicies() []exp.Policy {
	return []exp.Policy{
		preset("Bursts"),
		preset("AIP"),
		labeled("SmpCount", "SamplingCounting"),
		preset("TimeBased"),
		labeled("DuelSmp", "Dueling Sampler"),
		preset("PLRU"),
		labeled("PLRU+S", "PLRU Sampler"),
		preset("SHiP"),
		labeled("SkewDBP", "Skewed DBP"),
		labeled("ImpDBP", "Improved DBP"),
		preset("Sampler"),
	}
}

// Extensions holds the extension comparison over the subset.
type Extensions struct {
	Matrix *Matrix
	LRU    *Matrix
}

// RunExtensions sweeps the extension policies over the subset.
func RunExtensions(scale float64) *Extensions {
	return RunExtensionsEnv(DefaultEnv(), scale)
}

// RunExtensionsEnv is RunExtensions on a shared environment.
func RunExtensionsEnv(e *Env, scale float64) *Extensions {
	benches := sortedNames(workloads.Subset())
	return &Extensions{
		Matrix: RunMatrixEnv(e, benches, ExtensionPolicies(), sim.SingleOptions{Scale: scale}),
		LRU:    RunMatrixEnv(e, benches, []exp.Policy{LRUSpec()}, sim.SingleOptions{Scale: scale}),
	}
}

// Render prints normalized misses and gmean speedup for the extension
// policies.
func (e *Extensions) Render() string {
	pols := e.Matrix.Policies
	header := append([]string{"benchmark"}, pols...)
	var rows [][]string
	mpki := map[string][]float64{}
	speed := map[string][]float64{}
	lruM := e.LRU.Series("LRU", func(r sim.SingleResult) float64 { return r.MPKI })
	lruI := e.LRU.Series("LRU", func(r sim.SingleResult) float64 { return r.IPC })
	for i, b := range e.Matrix.Benchmarks {
		row := []string{b}
		for _, p := range pols {
			m := e.Matrix.Val(b, p, func(r sim.SingleResult) float64 { return r.MPKI }) / lruM[i]
			mpki[p] = append(mpki[p], m)
			speed[p] = append(speed[p],
				e.Matrix.Val(b, p, func(r sim.SingleResult) float64 { return r.IPC })/lruI[i])
			row = append(row, fmtVal("%.3f", m))
		}
		rows = append(rows, row)
	}
	amean := []string{"amean MPKI"}
	gmean := []string{"gmean speedup"}
	for _, p := range pols {
		amean = append(amean, fmtVal("%.3f", meanFinite(mpki[p])))
		gmean = append(gmean, fmtVal("%.3f", geoMeanFinite(speed[p])))
	}
	rows = append(rows, amean, gmean)
	return renderTable("Extensions: related-work predictors, future work, and PLRU bases (misses normalized to LRU)", header, rows)
}

// SamplerSetsSweep measures the design decision of Section III-A: "32
// sets provide a good trade-off between accuracy and efficiency". It
// returns gmean speedup over LRU per sampler set count.
func SamplerSetsSweep(scale float64, setCounts []int) map[int]float64 {
	return SamplerSetsSweepEnv(DefaultEnv(), scale, setCounts)
}

// SamplerSetsSweepEnv is SamplerSetsSweep on a shared environment.
func SamplerSetsSweepEnv(e *Env, scale float64, setCounts []int) map[int]float64 {
	benches := sortedNames(workloads.Subset())
	specs := []exp.Policy{LRUSpec()}
	for _, n := range setCounts {
		specs = append(specs, labeled(fmt.Sprintf("sets-%d", n),
			fmt.Sprintf("dbrb(base=lru,pred=sampler(sets=%d))", n)))
	}
	m := RunMatrixEnv(e, benches, specs, sim.SingleOptions{Scale: scale})
	lru := m.Series("LRU", func(r sim.SingleResult) float64 { return r.IPC })
	out := make(map[int]float64, len(setCounts))
	for _, n := range setCounts {
		sp := stats.Normalize(m.Series(fmt.Sprintf("sets-%d", n),
			func(r sim.SingleResult) float64 { return r.IPC }), lru)
		out[n] = geoMeanFinite(sp)
	}
	return out
}

// ThresholdSweep measures the design decision of Section III-E: "a
// threshold of eight gives the best accuracy". It returns gmean speedup
// over LRU per confidence threshold.
func ThresholdSweep(scale float64, thresholds []int) map[int]float64 {
	return ThresholdSweepEnv(DefaultEnv(), scale, thresholds)
}

// ThresholdSweepEnv is ThresholdSweep on a shared environment.
func ThresholdSweepEnv(e *Env, scale float64, thresholds []int) map[int]float64 {
	benches := sortedNames(workloads.Subset())
	specs := []exp.Policy{LRUSpec()}
	for _, th := range thresholds {
		specs = append(specs, labeled(fmt.Sprintf("thr-%d", th),
			fmt.Sprintf("dbrb(base=lru,pred=sampler(threshold=%d))", th)))
	}
	m := RunMatrixEnv(e, benches, specs, sim.SingleOptions{Scale: scale})
	lru := m.Series("LRU", func(r sim.SingleResult) float64 { return r.IPC })
	out := make(map[int]float64, len(thresholds))
	for _, th := range thresholds {
		sp := stats.Normalize(m.Series(fmt.Sprintf("thr-%d", th),
			func(r sim.SingleResult) float64 { return r.IPC }), lru)
		out[th] = geoMeanFinite(sp)
	}
	return out
}

// RenderSweep formats a parameter sweep result in ascending key order;
// a sweep point whose runs all failed prints as ERR.
func RenderSweep(title, keyName string, result map[int]float64, keys []int) string {
	header := []string{keyName, "gmean speedup"}
	var rows [][]string
	for _, k := range keys {
		rows = append(rows, []string{fmt.Sprintf("%d", k), fmtVal("%.3f", result[k])})
	}
	return renderTable(title, header, rows)
}
