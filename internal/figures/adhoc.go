package figures

import (
	"context"
	"fmt"
	"strings"

	"sdbp/internal/exp"
	"sdbp/internal/runner"
	"sdbp/internal/sim"
)

// Adhoc holds one user-declared experiment (cmd/experiments -spec or
// -policy): the spec's policy against the LRU baseline over the spec's
// workloads and/or quad-core mixes. The same normalizations as the
// paper's figures apply — norm miss is the Figure 4 cell, speedup the
// Figure 5 cell, and the mix panel uses the Figure 10 weighted-speedup
// formula — so an ad-hoc run of a preset policy over a figure's
// benchmark reproduces that figure's cell.
type Adhoc struct {
	// Spec is the fully-expanded canonical spec (exp.Resolved.String),
	// echoed into the rendering and the run manifest.
	Spec string
	// Label is the policy's column label.
	Label string
	// Matrix holds the single-benchmark runs (nil when the spec selects
	// no workloads); its columns are LRU and Label.
	Matrix *Matrix
	// Mixes holds the quad-core runs (nil when the spec selects no
	// mixes), normalized to shared LRU as in Figure 10.
	Mixes *Multicore
	// Sampled holds sampled-mode rows (specs with sampled=true): one
	// estimate with error bounds per workload. Matrix and Mixes are nil
	// in that mode — a sampled spec never runs the full streams.
	Sampled []SampledCell
}

// RunAdhocEnv runs a resolved spec on a shared environment. Its runs
// are the same cells as the paper's figures: a default-geometry
// single-core run of a preset over a subset benchmark, or of LRU, is
// the figure sweep's cell, so one Env (and one checkpoint journal)
// serves both.
func RunAdhocEnv(e *Env, r *exp.Resolved) *Adhoc {
	label := r.Policy.Name
	if label == "LRU" {
		// The baseline column is already named LRU.
		label = "LRU (spec)"
	}
	a := &Adhoc{Spec: r.String(), Label: label}
	pol := r.Policy
	pol.Name = label

	if r.Sampled {
		// Sampled mode: the pilot/selection/materialization is cached
		// inside exp per workload, so concurrent jobs share one pilot.
		key := func(bench string) string { return "adhoc-sampled|" + a.Spec + "|" + bench }
		var jobs []runner.Job[*SampledCell]
		for _, w := range r.Workloads {
			w := w
			jobs = append(jobs, runner.Job[*SampledCell]{
				Key: key(w.Name),
				Run: func(context.Context) (*SampledCell, error) {
					res, _, err := r.RunBenchSampled(w)
					if err != nil {
						return nil, err
					}
					return &SampledCell{Bench: w.Name, Policy: label, Estimate: res.Estimate}, nil
				},
			})
		}
		set := runJobs(e, jobs)
		for _, w := range r.Workloads {
			if c, ok := set.Value(key(w.Name)); ok && c != nil {
				a.Sampled = append(a.Sampled, *c)
			}
		}
		return a
	}

	if len(r.Workloads) > 0 {
		opts := sim.SingleOptions{Scale: r.Scale, LLC: r.LLCFor(r.Cores)}
		a.Matrix = runMatrix(e, r.Workloads, []exp.Policy{LRUSpec(), pol}, r.Cores, opts)
	}
	if len(r.Mixes) > 0 {
		a.Mixes = runMulticore(e, r.Mixes, []exp.Policy{pol}, r.Scale, r.LLCFor(4))
	}
	return a
}

// Render prints the experiment: raw MPKI and IPC per benchmark plus
// the figure-cell normalizations (misses normalized to LRU, speedup
// over LRU) and predictor accuracy where the policy exposes it, then
// the Figure 10 panel for any mixes. Failed runs print as ERR.
func (a *Adhoc) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ad-hoc experiment\nspec: %s\n", a.Spec)
	if a.Sampled != nil {
		sb.WriteByte('\n')
		sb.WriteString(a.renderSampled())
	}
	if a.Matrix != nil {
		sb.WriteByte('\n')
		sb.WriteString(a.renderBenches())
	}
	if a.Mixes != nil {
		sb.WriteByte('\n')
		sb.WriteString(a.Mixes.Render(fmt.Sprintf("Quad-core mixes: weighted speedup of %s normalized to shared LRU", a.Label)))
	}
	return sb.String()
}

// renderSampled prints the sampled-mode table: each estimate with its
// half-width error bound and the simulated fraction that bought it.
func (a *Adhoc) renderSampled() string {
	header := []string{"benchmark", "IPC", "±", "CPI", "MPKI", "±", "miss rate", "±", "sim%", "picks"}
	var rows [][]string
	for _, c := range a.Sampled {
		rows = append(rows, []string{c.Bench,
			fmtVal("%.4f", c.Estimate.IPC), fmtVal("%.4f", c.Estimate.IPCHalf),
			fmtVal("%.4f", c.Estimate.CPI),
			fmtVal("%.3f", c.Estimate.MPKI), fmtVal("%.3f", c.Estimate.MPKIHalf),
			fmtVal("%.4f", c.Estimate.MissRate), fmtVal("%.4f", c.Estimate.MissRateHalf),
			fmtVal("%.1f", 100*c.Estimate.SimFraction),
			fmt.Sprintf("%d", c.Estimate.Picks),
		})
	}
	return renderTable(fmt.Sprintf("Sampled estimates: %s (each value ± its 95%% bound incl. bias allowance)", a.Label), header, rows)
}

func (a *Adhoc) renderBenches() string {
	m := a.Matrix
	header := []string{"benchmark", "LRU MPKI", "MPKI", "IPC", "norm miss", "speedup", "cov%", "fp%"}
	var rows [][]string
	var norm, speed []float64
	mpki := func(r sim.SingleResult) float64 { return r.MPKI }
	ipc := func(r sim.SingleResult) float64 { return r.IPC }
	for _, b := range m.Benchmarks {
		lruM, lruI := m.Val(b, "LRU", mpki), m.Val(b, "LRU", ipc)
		nm := m.Val(b, a.Label, mpki) / lruM
		sp := m.Val(b, a.Label, ipc) / lruI
		norm = append(norm, nm)
		speed = append(speed, sp)
		row := []string{b,
			fmtVal("%.3f", lruM),
			fmtVal("%.3f", m.Val(b, a.Label, mpki)),
			fmtVal("%.3f", m.Val(b, a.Label, ipc)),
			fmtVal("%.3f", nm),
			fmtVal("%.3f", sp),
		}
		if r, ok := m.Results[coord{b, a.Label}]; ok && r.Accuracy != nil {
			row = append(row,
				fmt.Sprintf("%.1f", r.Accuracy.Coverage()*100),
				fmt.Sprintf("%.1f", r.Accuracy.FalsePositiveRate()*100))
		} else {
			row = append(row, "-", "-")
		}
		rows = append(rows, row)
	}
	rows = append(rows, []string{"mean", "", "", "",
		fmtVal("%.3f", meanFinite(norm)),
		fmtVal("%.3f", geoMeanFinite(speed)), "", ""})
	return renderTable(fmt.Sprintf("Benchmarks: %s vs LRU (norm miss = amean-able Figure 4 cell, speedup = Figure 5 cell)", a.Label), header, rows)
}
