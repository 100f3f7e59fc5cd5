package figures

import (
	"fmt"
	"strings"

	"sdbp/internal/exp"
	"sdbp/internal/optimal"
	"sdbp/internal/sim"
	"sdbp/internal/stats"
	"sdbp/internal/workloads"
)

// SingleCore holds the runs behind Figures 4, 5 and 9 and the paper's
// dead-time claim: the memory-intensive subset against the LRU baseline
// and the five comparison policies, plus the optimal policy's misses.
// A failed optimal run leaves NaN in OptimalMPKI; renderers print it
// as ERR.
type SingleCore struct {
	Matrix      *Matrix
	OptimalMPKI map[string]float64
	Scale       float64
}

// RunSingleCore performs the Figure 4/5/9 sweep at the given stream
// scale (1.0 = the suite's default length).
func RunSingleCore(scale float64) *SingleCore {
	return RunSingleCoreEnv(DefaultEnv(), scale)
}

// RunSingleCoreEnv is RunSingleCore on a shared execution environment.
func RunSingleCoreEnv(e *Env, scale float64) *SingleCore {
	benches := sortedNames(workloads.Subset())
	specs := append([]exp.Policy{LRUSpec()}, StandardPolicies()...)
	sc := &SingleCore{
		Matrix:      RunMatrixEnv(e, benches, specs, sim.SingleOptions{Scale: scale}),
		OptimalMPKI: make(map[string]float64),
		Scale:       scale,
	}
	var cells []cell
	for _, w := range benches {
		cells = append(cells, optimalCell(w.Name, scale))
	}
	set := runCells[float64](e, cells)
	for _, c := range cells {
		if v, ok := set.Value(c.key()); ok {
			sc.OptimalMPKI[c.name] = v
		} else {
			sc.OptimalMPKI[c.name] = errVal()
		}
	}
	return sc
}

// OptimalMPKI runs Belady MIN with optimal bypass over a benchmark's
// captured LLC stream and returns misses per kilo-instruction. The
// capture run takes RunSingle's one drive loop, which appends the
// LLC-bound records it already compacts for its LLC leg.
func OptimalMPKI(w workloads.Workload, scale float64) float64 {
	cap := sim.RunSingle(w, LRUSpec().Make(1), sim.SingleOptions{Scale: scale, CaptureStream: true})
	cfg := defaultLLC()
	min := optimal.Simulate(cap.Stream, cfg.Sets(), cfg.Ways)
	if cap.Instructions == 0 {
		return 0
	}
	return float64(min.Misses) / (float64(cap.Instructions) / 1000)
}

// RenderFig4 prints LLC misses normalized to LRU per benchmark
// (Figure 4), with the arithmetic mean row the paper reports. Failed
// cells (and every cell of a benchmark whose LRU baseline failed)
// print as ERR and are excluded from the mean.
func (sc *SingleCore) RenderFig4() string {
	pols := []string{"TDBP", "CDBP", "DIP", "RRIP", "Sampler"}
	header := append([]string{"benchmark"}, pols...)
	header = append(header, "Optimal")
	var rows [][]string
	norm := map[string][]float64{}
	var optNorm []float64
	lru := sc.Matrix.Series("LRU", func(r sim.SingleResult) float64 { return r.MPKI })
	for i, b := range sc.Matrix.Benchmarks {
		row := []string{b}
		for _, p := range pols {
			v := sc.Matrix.Val(b, p, func(r sim.SingleResult) float64 { return r.MPKI }) / lru[i]
			norm[p] = append(norm[p], v)
			row = append(row, fmtVal("%.3f", v))
		}
		ov := sc.OptimalMPKI[b] / lru[i]
		optNorm = append(optNorm, ov)
		row = append(row, fmtVal("%.3f", ov))
		rows = append(rows, row)
	}
	mean := []string{"amean"}
	for _, p := range pols {
		mean = append(mean, fmtVal("%.3f", meanFinite(norm[p])))
	}
	mean = append(mean, fmtVal("%.3f", meanFinite(optNorm)))
	rows = append(rows, mean)
	return renderTable("Figure 4: LLC misses normalized to LRU (2MB LLC)", header, rows)
}

// RenderFig5 prints speedup over LRU per benchmark (Figure 5), with the
// geometric mean row the paper reports.
func (sc *SingleCore) RenderFig5() string {
	pols := []string{"TDBP", "CDBP", "DIP", "RRIP", "Sampler"}
	header := append([]string{"benchmark"}, pols...)
	var rows [][]string
	speed := map[string][]float64{}
	lru := sc.Matrix.Series("LRU", func(r sim.SingleResult) float64 { return r.IPC })
	for i, b := range sc.Matrix.Benchmarks {
		row := []string{b}
		for _, p := range pols {
			v := sc.Matrix.Val(b, p, func(r sim.SingleResult) float64 { return r.IPC }) / lru[i]
			speed[p] = append(speed[p], v)
			row = append(row, fmtVal("%.3f", v))
		}
		rows = append(rows, row)
	}
	mean := []string{"gmean"}
	for _, p := range pols {
		mean = append(mean, fmtVal("%.3f", geoMeanFinite(speed[p])))
	}
	rows = append(rows, mean)
	return renderTable("Figure 5: speedup over LRU (2MB LLC)", header, rows)
}

// Fig4Summary returns the Figure 4 policy labels and amean normalized
// misses (for the summary chart), over completed cells.
func (sc *SingleCore) Fig4Summary() ([]string, []float64) {
	pols := []string{"TDBP", "CDBP", "DIP", "RRIP", "Sampler"}
	lru := sc.Matrix.Series("LRU", func(r sim.SingleResult) float64 { return r.MPKI })
	var vals []float64
	for _, p := range pols {
		norm := stats.Normalize(sc.Matrix.Series(p, func(r sim.SingleResult) float64 { return r.MPKI }), lru)
		vals = append(vals, meanFinite(norm))
	}
	return pols, vals
}

// Fig5Summary returns the Figure 5 policy labels and gmean speedups.
func (sc *SingleCore) Fig5Summary() ([]string, []float64) {
	pols := []string{"TDBP", "CDBP", "DIP", "RRIP", "Sampler"}
	lru := sc.Matrix.Series("LRU", func(r sim.SingleResult) float64 { return r.IPC })
	var vals []float64
	for _, p := range pols {
		sp := stats.Normalize(sc.Matrix.Series(p, func(r sim.SingleResult) float64 { return r.IPC }), lru)
		vals = append(vals, geoMeanFinite(sp))
	}
	return pols, vals
}

// RenderFig9 prints each dead block predictor's coverage and false
// positive rate as a percentage of LLC accesses (Figure 9).
func (sc *SingleCore) RenderFig9() string {
	pols := []string{"TDBP", "CDBP", "Sampler"}
	labels := map[string]string{
		"TDBP": "reftrace", "CDBP": "counting", "Sampler": "sampling",
	}
	header := []string{"benchmark"}
	for _, p := range pols {
		header = append(header, labels[p]+" cov%", labels[p]+" fp%")
	}
	var rows [][]string
	sums := make(map[string][2][]float64)
	for _, b := range sc.Matrix.Benchmarks {
		row := []string{b}
		for _, p := range pols {
			if sc.Matrix.Err(b, p) != nil {
				row = append(row, "ERR", "ERR")
				continue
			}
			r := sc.Matrix.Get(b, p)
			cov, fp := 0.0, 0.0
			if r.Accuracy != nil {
				cov, fp = r.Accuracy.Coverage(), r.Accuracy.FalsePositiveRate()
			}
			s := sums[p]
			s[0] = append(s[0], cov)
			s[1] = append(s[1], fp)
			sums[p] = s
			row = append(row, fmt.Sprintf("%.1f", cov*100), fmt.Sprintf("%.1f", fp*100))
		}
		rows = append(rows, row)
	}
	mean := []string{"amean"}
	for _, p := range pols {
		mean = append(mean,
			fmtVal("%.1f", meanFinite(sums[p][0])*100),
			fmtVal("%.1f", meanFinite(sums[p][1])*100))
	}
	rows = append(rows, mean)
	return renderTable("Figure 9: predictor coverage and false positive rates (% of LLC accesses)", header, rows)
}

// DeadTimeClaim returns the average fraction of block-resident time
// that blocks spend dead in the LRU baseline (the paper's 86.2% claim).
func (sc *SingleCore) DeadTimeClaim() float64 {
	var dead []float64
	for _, b := range sc.Matrix.Benchmarks {
		dead = append(dead, 1-sc.Matrix.Val(b, "LRU", func(r sim.SingleResult) float64 { return r.Efficiency }))
	}
	return meanFinite(dead)
}

// RenderClaim prints the dead-time claim comparison.
func (sc *SingleCore) RenderClaim() string {
	return fmt.Sprintf(
		"Section I claim: average dead time in a 2MB LRU LLC\n  paper: 86.2%%   measured: %s%%\n",
		fmtVal("%.1f", sc.DeadTimeClaim()*100))
}

// RandomBaseline holds the Figure 7/8 runs: the subset against random
// replacement and the dead-block policies over it.
type RandomBaseline struct {
	Matrix *Matrix
	LRU    *Matrix
}

// RunRandomBaseline performs the Figure 7/8 sweep. Values remain
// normalized to the LRU baseline, as in the paper.
func RunRandomBaseline(scale float64) *RandomBaseline {
	return RunRandomBaselineEnv(DefaultEnv(), scale)
}

// RunRandomBaselineEnv is RunRandomBaseline on a shared environment.
func RunRandomBaselineEnv(e *Env, scale float64) *RandomBaseline {
	benches := sortedNames(workloads.Subset())
	return &RandomBaseline{
		Matrix: RunMatrixEnv(e, benches, RandomPolicies(), sim.SingleOptions{Scale: scale}),
		LRU:    RunMatrixEnv(e, benches, []exp.Policy{LRUSpec()}, sim.SingleOptions{Scale: scale}),
	}
}

// RenderFig7 prints misses normalized to the LRU baseline (Figure 7).
func (rb *RandomBaseline) RenderFig7() string {
	return rb.render("Figure 7: LLC misses normalized to LRU, default random replacement",
		func(r sim.SingleResult) float64 { return r.MPKI }, meanFinite, "amean")
}

// RenderFig8 prints speedup over the LRU baseline (Figure 8).
func (rb *RandomBaseline) RenderFig8() string {
	return rb.render("Figure 8: speedup over LRU, default random replacement",
		func(r sim.SingleResult) float64 { return r.IPC }, geoMeanFinite, "gmean")
}

func (rb *RandomBaseline) render(title string, f func(sim.SingleResult) float64,
	agg func([]float64) float64, aggName string) string {
	pols := rb.Matrix.Policies
	header := append([]string{"benchmark"}, pols...)
	var rows [][]string
	series := map[string][]float64{}
	lru := rb.LRU.Series("LRU", f)
	for i, b := range rb.Matrix.Benchmarks {
		row := []string{b}
		for _, p := range pols {
			v := rb.Matrix.Val(b, p, f) / lru[i]
			series[p] = append(series[p], v)
			row = append(row, fmtVal("%.3f", v))
		}
		rows = append(rows, row)
	}
	mean := []string{aggName}
	for _, p := range pols {
		mean = append(mean, fmtVal("%.3f", agg(series[p])))
	}
	rows = append(rows, mean)
	var sb strings.Builder
	sb.WriteString(renderTable(title, header, rows))
	return sb.String()
}
