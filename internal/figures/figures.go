// Package figures regenerates every table and figure in the paper's
// evaluation: the policy comparison figures (4, 5, 7, 8), the predictor
// accuracy figure (9), the component ablation (6), the multicore
// weighted speedups (10a, 10b), the storage and power tables (I, II),
// the benchmark characterization table (III), the workload mixes and
// cache sensitivity curves (IV), and the cache-efficiency illustration
// (Figure 1).
//
// Each figure has a Run function that performs the sweep and a Render
// method that prints the same rows/series the paper reports.
package figures

import (
	"fmt"
	"sort"
	"strings"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// preset looks a policy up in the component registry by its preset
// name, keeping that name as the table label.
func preset(name string) exp.Policy { return exp.MustResolvePolicy(name) }

// labeled resolves a preset name or registry expression under a table
// label of its own (the extension tables abbreviate some preset names
// to fit their columns; sweep points label by the swept value).
func labeled(label, nameOrExpr string) exp.Policy {
	p := preset(nameOrExpr)
	p.Name = label
	return p
}

// LRUSpec is the baseline.
func LRUSpec() exp.Policy { return preset("LRU") }

// StandardPolicies returns the paper's LRU-baseline comparison set in
// presentation order: TDBP, CDBP, DIP, RRIP, Sampler.
func StandardPolicies() []exp.Policy {
	return []exp.Policy{
		preset("TDBP"), preset("CDBP"), preset("DIP"), preset("RRIP"), preset("Sampler"),
	}
}

// RandomPolicies returns the random-baseline comparison set of Figures
// 7 and 8: Random, Random CDBP, Random Sampler.
func RandomPolicies() []exp.Policy {
	return []exp.Policy{
		preset("Random"), preset("Random CDBP"), preset("Random Sampler"),
	}
}

// MulticorePolicies returns the shared-cache comparison set of Figure
// 10(a): TDBP, CDBP, TADIP, RRIP, Sampler.
func MulticorePolicies() []exp.Policy {
	return []exp.Policy{
		preset("TDBP"), preset("CDBP"), preset("TADIP"), preset("RRIP"), preset("Sampler"),
	}
}

// coord locates one (benchmark, policy label) entry of a matrix.
type coord struct {
	bench  string
	policy string
}

// Matrix holds the results of a benchmarks × policies sweep. Cells
// whose run failed (panic, timeout, cancellation) carry an entry in
// Errors instead of Results; renderers print them as ERR and aggregate
// rows skip them.
type Matrix struct {
	Benchmarks []string
	Policies   []string
	Results    map[coord]sim.SingleResult
	Errors     map[coord]error
}

// Get returns one run's result (the zero result for a failed cell).
func (m *Matrix) Get(bench, pol string) sim.SingleResult {
	return m.Results[coord{bench, pol}]
}

// Err returns why a cell failed, nil for a completed cell.
func (m *Matrix) Err(bench, pol string) error {
	return m.Errors[coord{bench, pol}]
}

// Val returns f of the cell's result, or NaN when the run failed, so
// downstream normalizations propagate the failure to every value that
// depends on it.
func (m *Matrix) Val(bench, pol string, f func(sim.SingleResult) float64) float64 {
	if _, ok := m.Results[coord{bench, pol}]; !ok {
		return errVal()
	}
	return f(m.Get(bench, pol))
}

// Series returns one policy's values over the benchmark list, computed
// by f; failed cells yield NaN.
func (m *Matrix) Series(pol string, f func(sim.SingleResult) float64) []float64 {
	out := make([]float64, len(m.Benchmarks))
	for i, b := range m.Benchmarks {
		out[i] = m.Val(b, pol, f)
	}
	return out
}

// RunMatrix sweeps every benchmark against every policy in parallel
// with the default execution environment.
func RunMatrix(benches []workloads.Workload, specs []exp.Policy, opts sim.SingleOptions) *Matrix {
	return RunMatrixEnv(DefaultEnv(), benches, specs, opts)
}

// RunMatrixEnv sweeps every benchmark against every policy on the
// shared runner, one single-core cell per entry; columns are labeled
// by policy Name.
func RunMatrixEnv(e *Env, benches []workloads.Workload, specs []exp.Policy, opts sim.SingleOptions) *Matrix {
	return runMatrix(e, benches, specs, 1, opts)
}

// runMatrix is RunMatrixEnv with every policy built for threads
// sharers.
func runMatrix(e *Env, benches []workloads.Workload, specs []exp.Policy, threads int, opts sim.SingleOptions) *Matrix {
	m := &Matrix{
		Results: make(map[coord]sim.SingleResult),
		Errors:  make(map[coord]error),
	}
	for _, s := range specs {
		m.Policies = append(m.Policies, s.Name)
	}
	var cells []cell
	for _, w := range benches {
		m.Benchmarks = append(m.Benchmarks, w.Name)
		for _, s := range specs {
			cells = append(cells, singleCell(w.Name, s, threads, opts))
		}
	}
	set := runCells[sim.SingleResult](e, cells)
	for i, c := range cells {
		at := coord{c.name, specs[i%len(specs)].Name}
		if r, ok := set.Value(c.key()); ok {
			m.Results[at] = r
		} else if err := set.Err(c.key()); err != nil {
			m.Errors[at] = err
		}
	}
	return m
}

// renderTable prints a header row and aligned numeric rows.
func renderTable(title string, header []string, rows [][]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
			} else {
				fmt.Fprintf(&sb, "%*s", widths[i]+2, c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// defaultLLC returns the paper's single-core LLC geometry.
func defaultLLC() cache.Config { return hier.LLCConfig(1) }

// sortedNames returns names sorted lexically (benchmark order in the
// paper's figures).
func sortedNames(ws []workloads.Workload) []workloads.Workload {
	out := make([]workloads.Workload, len(ws))
	copy(out, ws)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
