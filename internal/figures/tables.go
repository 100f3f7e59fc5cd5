package figures

import (
	"fmt"
	"strings"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/power"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// predictorStorage instantiates each predictor against the paper's 2MB
// LLC geometry and reports its structures.
func predictorStorage() map[string][]power.Structure {
	cfg := defaultLLC()
	out := make(map[string][]power.Structure, 3)
	for _, name := range []string{"reftrace", "counting", "sampler"} {
		p := exp.MustPredictor(name)
		p.Reset(cfg.Sets(), cfg.Ways)
		out[name] = p.Storage()
	}
	return out
}

// RenderTable1 prints the predictor storage overheads (Table I). The
// paper's totals are 72KB (reftrace), 108KB (counting), 13.75KB
// (sampler).
func RenderTable1() string {
	header := []string{"predictor", "predictor structures (KB)", "cache metadata (KB)", "total (KB)"}
	var rows [][]string
	storage := predictorStorage()
	for _, name := range []string{"reftrace", "counting", "sampler"} {
		var predKB, metaKB float64
		for _, s := range storage[name] {
			if s.Kind == power.CacheMetadata {
				metaKB += s.KB()
			} else {
				predKB += s.KB()
			}
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.2f", predKB),
			fmt.Sprintf("%.2f", metaKB),
			fmt.Sprintf("%.2f", predKB+metaKB),
		})
	}
	return renderTable("Table I: storage overhead for the predictors (2MB LLC)", header, rows)
}

// RenderTable2 prints the power breakdown (Table II) from the analytic
// CACTI substitute, plus each predictor's share of the baseline LLC
// budget that the paper quotes in the text.
func RenderTable2() string {
	m := power.DefaultModel()
	header := []string{"predictor",
		"pred leak (W)", "pred dyn (W)",
		"meta leak (W)", "meta dyn (W)",
		"total leak (W)", "total dyn (W)",
		"% LLC leak", "% LLC dyn"}
	var rows [][]string
	baseLeak, baseDyn := m.BaselineLLC()
	storage := predictorStorage()
	for _, name := range []string{"reftrace", "counting", "sampler"} {
		rep := m.Evaluate(name, storage[name])
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.4f", rep.PredictorLeakage),
			fmt.Sprintf("%.4f", rep.PredictorDynamic),
			fmt.Sprintf("%.4f", rep.MetadataLeakage),
			fmt.Sprintf("%.4f", rep.MetadataDynamic),
			fmt.Sprintf("%.4f", rep.TotalLeakage()),
			fmt.Sprintf("%.4f", rep.TotalDynamic()),
			fmt.Sprintf("%.1f", rep.TotalLeakage()/baseLeak*100),
			fmt.Sprintf("%.1f", rep.TotalDynamic()/baseDyn*100),
		})
	}
	out := renderTable("Table II: predictor power (analytic CACTI substitute)", header, rows)
	out += fmt.Sprintf("baseline 2MB LLC: leakage %.3fW, peak dynamic %.2fW\n", baseLeak, baseDyn)
	return out
}

// Table3 holds the benchmark characterization (Table III): baseline
// MPKI under LRU, optimal MPKI under MIN with bypass, and baseline IPC.
type Table3 struct {
	Rows []Table3Row
}

// Table3Row is one benchmark's characterization.
type Table3Row struct {
	Name     string
	Class    string
	InSubset bool
	MPKILRU  float64
	MPKIMin  float64
	IPCLRU   float64
}

// RunTable3Env characterizes all 29 benchmarks. Each row reads two
// cells, the benchmark's LRU run and its optimal MIN; a benchmark
// keeps its identity columns when they fail, and the failed cell's
// metrics render as ERR.
func RunTable3Env(e *Env, scale float64) *Table3 {
	benches := sortedNames(workloads.All())
	var runs, mins []cell
	for _, w := range benches {
		runs = append(runs, singleCell(w.Name, LRUSpec(), 1, sim.SingleOptions{Scale: scale}))
		mins = append(mins, optimalCell(w.Name, scale))
	}
	lru := runCells[sim.SingleResult](e, runs)
	opt := runCells[float64](e, mins)
	t := &Table3{Rows: make([]Table3Row, len(benches))}
	for i, w := range benches {
		row := Table3Row{
			Name: w.Name, Class: w.Class, InSubset: w.InSubset,
			MPKILRU: errVal(), MPKIMin: errVal(), IPCLRU: errVal(),
		}
		if r, ok := lru.Value(runs[i].key()); ok {
			row.MPKILRU, row.IPCLRU = r.MPKI, r.IPC
		}
		if v, ok := opt.Value(mins[i].key()); ok {
			row.MPKIMin = v
		}
		t.Rows[i] = row
	}
	return t
}

// Render prints Table III. Subset members are marked with '*' (the
// paper sets them in boldface).
func (t *Table3) Render() string {
	header := []string{"benchmark", "behavior", "MPKI (LRU)", "MPKI (MIN)", "IPC (LRU)"}
	var rows [][]string
	for _, r := range t.Rows {
		name := r.Name
		if r.InSubset {
			name += " *"
		}
		rows = append(rows, []string{
			name, r.Class,
			fmtVal("%.2f", r.MPKILRU),
			fmtVal("%.2f", r.MPKIMin),
			fmtVal("%.3f", r.IPCLRU),
		})
	}
	return renderTable("Table III: benchmark characterization (2MB LLC; * = memory-intensive subset)", header, rows)
}

// SensitivitySizes are the LLC capacities of Table IV's cache
// sensitivity curves, 128KB through 32MB.
var SensitivitySizes = []int{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20}

// Table4 holds each mix's membership and cache sensitivity curve: the
// sum of members' single-core MPKIs at each LLC capacity.
type Table4 struct {
	Mixes  []workloads.Mix
	Curves map[string][]float64 // mix name -> MPKI per SensitivitySizes entry
}

// RunTable4Env computes the sensitivity curves. Each distinct benchmark
// is simulated once per size and shared across mixes. A failed point
// poisons (only) the curve points of mixes containing that benchmark,
// which render as ERR.
func RunTable4Env(e *Env, scale float64) *Table4 {
	mixes := workloads.Mixes()
	point := func(bench string, size int) cell {
		return singleCell(bench, LRUSpec(), 1, sim.SingleOptions{
			Scale: scale,
			LLC:   cache.Config{Name: "LLC", SizeBytes: size, Ways: 16},
		})
	}
	var cells []cell
	for _, bench := range members(mixes) {
		for _, size := range SensitivitySizes {
			cells = append(cells, point(bench, size))
		}
	}
	set := runCells[sim.SingleResult](e, cells)

	t := &Table4{Mixes: mixes, Curves: make(map[string][]float64)}
	for _, m := range mixes {
		curve := make([]float64, len(SensitivitySizes))
		for i, size := range SensitivitySizes {
			for _, b := range m.Members {
				if r, ok := set.Value(point(b, size).key()); ok {
					curve[i] += r.MPKI
				} else {
					curve[i] = errVal()
					break
				}
			}
		}
		t.Curves[m.Name] = curve
	}
	return t
}

// Render prints Table IV: each mix's members and its MPKI-vs-capacity
// curve.
func (t *Table4) Render() string {
	var sb strings.Builder
	sb.WriteString("Table IV: multi-core workload mixes with cache sensitivity curves\n")
	sb.WriteString("(summed member MPKI at LLC sizes 128KB..32MB)\n")
	for _, m := range t.Mixes {
		fmt.Fprintf(&sb, "%-7s %s\n", m.Name, strings.Join(m.Members[:], " "))
		sb.WriteString("        ")
		for i, size := range SensitivitySizes {
			label := fmt.Sprintf("%dK", size>>10)
			if size >= 1<<20 {
				label = fmt.Sprintf("%dM", size>>20)
			}
			fmt.Fprintf(&sb, "%s:%s", label, fmtVal("%.1f", t.Curves[m.Name][i]))
			if i < len(SensitivitySizes)-1 {
				sb.WriteString("  ")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
