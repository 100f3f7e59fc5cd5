package figures

import (
	"context"
	"fmt"

	"sdbp/internal/exp"
	"sdbp/internal/runner"
	"sdbp/internal/victim"
	"sdbp/internal/workloads"
)

// VictimStudy compares an unfiltered victim cache against one that
// admits only victims the sampling predictor considers live (the Hu et
// al. application). A failed run leaves its cell out of Results and an
// entry in Errors; Render marks the benchmark's row ERR.
type VictimStudy struct {
	Benchmarks []string
	// Results[config][bench]; configs are "unfiltered", "dead-filtered".
	Results map[string]map[string]victim.Result
	// Errors[{bench, config}] records failed runs.
	Errors map[coord]error
}

// RunVictimStudy performs the comparison over the subset with a
// 64-entry victim buffer.
func RunVictimStudy(scale float64) *VictimStudy {
	return RunVictimStudyEnv(DefaultEnv(), scale)
}

// RunVictimStudyEnv is RunVictimStudy on a shared environment.
func RunVictimStudyEnv(e *Env, scale float64) *VictimStudy {
	benches := sortedNames(workloads.Subset())
	configs := map[bool]string{false: "unfiltered", true: "dead-filtered"}
	st := &VictimStudy{
		Results: map[string]map[string]victim.Result{
			"unfiltered":    {},
			"dead-filtered": {},
		},
		Errors: map[coord]error{},
	}
	for _, b := range benches {
		st.Benchmarks = append(st.Benchmarks, b.Name)
	}
	mk := exp.MustDBRBFactory("Sampler")

	key := func(bench, config string) string {
		return fmt.Sprintf("victim|s=%g|%s|%s", scaleOr1(scale), bench, config)
	}
	var jobs []runner.Job[victim.Result]
	for _, w := range benches {
		for _, filtered := range []bool{false, true} {
			w, filtered := w, filtered
			jobs = append(jobs, runner.Job[victim.Result]{
				Key: key(w.Name, configs[filtered]),
				Run: func(context.Context) (victim.Result, error) {
					return victim.Run(w, mk, 64, filtered, scale), nil
				},
			})
		}
	}
	set := runJobs(e, jobs)
	for _, b := range st.Benchmarks {
		for _, config := range []string{"unfiltered", "dead-filtered"} {
			k := key(b, config)
			if r, ok := set.Value(k); ok {
				st.Results[config][b] = r
			} else if err := set.Err(k); err != nil {
				st.Errors[coord{b, config}] = err
			}
		}
	}
	return st
}

// ok reports whether both of a benchmark's runs completed.
func (st *VictimStudy) ok(bench string) bool {
	_, u := st.Results["unfiltered"][bench]
	_, f := st.Results["dead-filtered"][bench]
	return u && f
}

// Render prints each variant's victim-buffer yield (hits per insert)
// and the filtered variant's insertion reduction. Benchmarks with a
// failed run print ERR and are excluded from the means.
func (st *VictimStudy) Render() string {
	header := []string{"benchmark", "unfilt hits/ins", "filt hits/ins", "inserts kept %"}
	var rows [][]string
	var yu, yf, kept []float64
	for _, b := range st.Benchmarks {
		if !st.ok(b) {
			rows = append(rows, []string{b, "ERR", "ERR", "ERR"})
			continue
		}
		u := st.Results["unfiltered"][b]
		f := st.Results["dead-filtered"][b]
		k := 0.0
		if u.VCInserts > 0 {
			k = float64(f.VCInserts) / float64(u.VCInserts)
		}
		yu = append(yu, u.HitsPerInsert())
		yf = append(yf, f.HitsPerInsert())
		kept = append(kept, k)
		rows = append(rows, []string{b,
			fmt.Sprintf("%.4f", u.HitsPerInsert()),
			fmt.Sprintf("%.4f", f.HitsPerInsert()),
			fmt.Sprintf("%.1f", k*100)})
	}
	rows = append(rows, []string{"amean",
		fmtVal("%.4f", meanFinite(yu)),
		fmtVal("%.4f", meanFinite(yf)),
		fmtVal("%.1f", meanFinite(kept)*100)})
	return renderTable("Victim cache study: 64-entry buffer, dead-block filtering of insertions", header, rows)
}
