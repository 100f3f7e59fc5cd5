package figures

import (
	"fmt"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// Multicore holds the Figure 10 runs: ten quad-core mixes sharing an
// 8MB LLC, under the LRU-baseline policies (10a) and random-baseline
// policies (10b), all normalized to the shared-LRU configuration. A
// failed run (panic, timeout, bad mix config) leaves NaN in
// WeightedSpeedup; Render prints those cells as ERR.
type Multicore struct {
	Mixes    []string
	Policies []string
	// WeightedSpeedup[policy][mix] is normalized to the LRU policy.
	WeightedSpeedup map[string]map[string]float64
	// NormMPKI[policy] is the mix-average LLC MPKI normalized to LRU
	// (the Section VII-D text numbers), over completed mixes.
	NormMPKI map[string]float64
}

// RunMulticoreFigure performs one Figure 10 panel's sweep: the given
// policies plus the LRU baseline over all ten mixes.
func RunMulticoreFigure(specs []exp.Policy, scale float64) *Multicore {
	return RunMulticoreFigureEnv(DefaultEnv(), specs, scale)
}

// RunMulticoreFigureEnv is RunMulticoreFigure on a shared environment.
// Both panels read the same LRU baseline cells, so one Env runs them
// once.
func RunMulticoreFigureEnv(e *Env, specs []exp.Policy, scale float64) *Multicore {
	return runMulticore(e, workloads.Mixes(), specs, scale, hier.LLCConfig(4))
}

// runMulticore runs the given policies plus the LRU baseline over the
// given mixes on one shared-LLC geometry.
func runMulticore(e *Env, mixes []workloads.Mix, specs []exp.Policy, scale float64, llcCfg cache.Config) *Multicore {
	// Single-run IPCs (denominators of weighted speedup): each member
	// alone under LRU at the shared-LLC geometry, shared across mixes
	// and policies.
	lru := LRUSpec()
	single := func(bench string) cell {
		return singleCell(bench, lru, 1, sim.SingleOptions{Scale: scale, LLC: llcCfg})
	}
	var singleCells []cell
	for _, name := range members(mixes) {
		singleCells = append(singleCells, single(name))
	}
	singles := runCells[sim.SingleResult](e, singleCells)

	all := append([]exp.Policy{lru}, specs...)
	var mixCells []cell
	for _, mix := range mixes {
		for _, spec := range all {
			mixCells = append(mixCells, mixCell(mix.Name, spec, scale, llcCfg))
		}
	}
	mixSet := runCells[sim.MulticoreResult](e, mixCells)
	mixRun := func(mix workloads.Mix, spec exp.Policy) (sim.MulticoreResult, bool) {
		return mixSet.Value(mixCell(mix.Name, spec, scale, llcCfg).key())
	}

	mc := &Multicore{
		WeightedSpeedup: make(map[string]map[string]float64),
		NormMPKI:        make(map[string]float64),
	}
	for _, mix := range mixes {
		mc.Mixes = append(mc.Mixes, mix.Name)
	}
	for _, spec := range specs {
		mc.Policies = append(mc.Policies, spec.Name)
	}

	// ws is NaN when the mix run or any member's single-run IPC failed,
	// so the normalized cell renders as ERR.
	ws := func(mix workloads.Mix, spec exp.Policy) float64 {
		r, ok := mixRun(mix, spec)
		if !ok {
			return errVal()
		}
		var out float64
		for i, name := range mix.Members {
			s, ok := singles.Value(single(name).key())
			if !ok || !(s.IPC > 0) {
				return errVal()
			}
			out += r.IPC[i] / s.IPC
		}
		return out
	}
	for _, spec := range all {
		mc.WeightedSpeedup[spec.Name] = make(map[string]float64)
		var mpkis []float64
		for _, mix := range mixes {
			norm := ws(mix, spec) / ws(mix, lru)
			mc.WeightedSpeedup[spec.Name][mix.Name] = norm
			base, baseOK := mixRun(mix, lru)
			r, rOK := mixRun(mix, spec)
			if baseOK && rOK && base.MPKI > 0 {
				mpkis = append(mpkis, r.MPKI/base.MPKI)
			}
		}
		mc.NormMPKI[spec.Name] = meanFinite(mpkis)
	}
	return mc
}

// members returns the distinct member benchmarks of mixes, in order of
// first appearance.
func members(mixes []workloads.Mix) []string {
	var out []string
	seen := map[string]bool{}
	for _, mix := range mixes {
		for _, name := range mix.Members {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return out
}

// Render prints one Figure 10 panel: normalized weighted speedup per
// mix per policy with the geometric mean the paper reports, plus the
// Section VII-D normalized MPKI line. Failed cells print as ERR and
// are excluded from the means.
func (mc *Multicore) Render(title string) string {
	header := append([]string{"mix"}, mc.Policies...)
	var rows [][]string
	series := map[string][]float64{}
	for _, mix := range mc.Mixes {
		row := []string{mix}
		for _, p := range mc.Policies {
			v := mc.WeightedSpeedup[p][mix]
			series[p] = append(series[p], v)
			row = append(row, fmtVal("%.3f", v))
		}
		rows = append(rows, row)
	}
	mean := []string{"gmean"}
	for _, p := range mc.Policies {
		mean = append(mean, fmtVal("%.3f", geoMeanFinite(series[p])))
	}
	rows = append(rows, mean)
	out := renderTable(title, header, rows)
	out += "normalized MPKI (mix average): "
	for i, p := range mc.Policies {
		if i > 0 {
			out += "  "
		}
		out += fmt.Sprintf("%s=%s", p, fmtVal("%.2f", mc.NormMPKI[p]))
	}
	return out + "\n"
}
