package figures

import (
	"sdbp/internal/exp"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// AblationOrder is the paper's Figure 6 bar order. Each name resolves
// as a registry preset.
var AblationOrder = exp.AblationVariantNames()

// Ablation holds the Figure 6 component-contribution study: geometric
// mean speedup over LRU for every feasible combination of the sampler,
// reduced sampler associativity, and the skewed table organization.
type Ablation struct {
	Speedup map[string]float64 // variant -> gmean speedup over LRU
}

// RunAblation performs the Figure 6 sweep.
func RunAblation(scale float64) *Ablation {
	return RunAblationEnv(DefaultEnv(), scale)
}

// RunAblationEnv is RunAblation on a shared environment.
func RunAblationEnv(e *Env, scale float64) *Ablation {
	benches := sortedNames(workloads.Subset())
	specs := []exp.Policy{LRUSpec()}
	for _, name := range AblationOrder {
		specs = append(specs, preset(name))
	}
	m := RunMatrixEnv(e, benches, specs, sim.SingleOptions{Scale: scale})

	lru := m.Series("LRU", func(r sim.SingleResult) float64 { return r.IPC })
	ab := &Ablation{Speedup: make(map[string]float64)}
	for _, name := range AblationOrder {
		var sp []float64
		for i, b := range m.Benchmarks {
			sp = append(sp, m.Val(b, name, func(r sim.SingleResult) float64 { return r.IPC })/lru[i])
		}
		ab.Speedup[name] = geoMeanFinite(sp)
	}
	return ab
}

// Render prints the Figure 6 bars: gmean speedup per variant; a
// variant whose runs all failed prints as ERR.
func (ab *Ablation) Render() string {
	header := []string{"variant", "gmean speedup"}
	var rows [][]string
	for _, name := range AblationOrder {
		rows = append(rows, []string{name, fmtVal("%.3f", ab.Speedup[name])})
	}
	return renderTable("Figure 6: contribution of sampling, reduced associativity, and skewed prediction", header, rows)
}
