package figures

import (
	"context"
	"fmt"

	"sdbp/internal/cache"
	"sdbp/internal/prefetch"
	"sdbp/internal/runner"
	"sdbp/internal/workloads"
)

// PrefetchStudy compares sequential LLC prefetching under three
// placement regimes: none, polluting (prefetches displace the LRU
// block), and dead-block-directed (prefetches may only displace
// predicted-dead blocks — the application that introduced dead block
// prediction). Failed runs leave their cell out of Results and an
// entry in Errors; Render marks the benchmark's row ERR.
type PrefetchStudy struct {
	Benchmarks []string
	// Results[config][bench]; configs are "LRU", "LRU+PF", "Sampler",
	// "Sampler+PF".
	Results map[string]map[string]prefetch.Result
	// Errors[{bench, config}] records failed runs.
	Errors map[coord]error
}

// prefetchConfigs enumerates the study's configurations.
func prefetchConfigs() []struct {
	name   string
	pol    func() cache.Policy
	degree int
} {
	lruSpec, smpSpec := LRUSpec(), preset("Sampler")
	lru := func() cache.Policy { return lruSpec.Make(1) }
	sampler := func() cache.Policy { return smpSpec.Make(1) }
	return []struct {
		name   string
		pol    func() cache.Policy
		degree int
	}{
		{"LRU", lru, 0},
		{"LRU+PF", lru, 4},
		{"Sampler", sampler, 0},
		{"Sampler+PF", sampler, 4},
	}
}

// RunPrefetchStudyEnv performs the prefetch comparison over the subset.
func RunPrefetchStudyEnv(e *Env, scale float64) *PrefetchStudy {
	benches := sortedNames(workloads.Subset())
	st := &PrefetchStudy{
		Results: map[string]map[string]prefetch.Result{},
		Errors:  map[coord]error{},
	}
	for _, b := range benches {
		st.Benchmarks = append(st.Benchmarks, b.Name)
	}
	cfgs := prefetchConfigs()
	for _, c := range cfgs {
		st.Results[c.name] = map[string]prefetch.Result{}
	}

	key := func(bench, config string) string {
		return fmt.Sprintf("prefetch|s=%g|%s|%s", scaleOr1(scale), bench, config)
	}
	var jobs []runner.Job[prefetch.Result]
	for _, w := range benches {
		for _, c := range cfgs {
			w, c := w, c
			jobs = append(jobs, runner.Job[prefetch.Result]{
				Key: key(w.Name, c.name),
				Run: func(context.Context) (prefetch.Result, error) {
					return prefetch.Run(w, c.pol(), prefetch.Config{Degree: c.degree}, scale), nil
				},
			})
		}
	}
	set := runJobs(e, jobs)
	for _, b := range st.Benchmarks {
		for _, c := range cfgs {
			k := key(b, c.name)
			if r, ok := set.Value(k); ok {
				st.Results[c.name][b] = r
			} else if err := set.Err(k); err != nil {
				st.Errors[coord{b, c.name}] = err
			}
		}
	}
	return st
}

// val returns a config's metric for a benchmark, NaN when that run
// failed so the failure propagates into any ratio built on it.
func (st *PrefetchStudy) val(config, bench string, f func(prefetch.Result) float64) float64 {
	r, ok := st.Results[config][bench]
	if !ok {
		return errVal()
	}
	return f(r)
}

// Render prints demand MPKI normalized to plain LRU, plus prefetch
// accuracy per placement regime. Failed cells print as ERR and are
// excluded from the means.
func (st *PrefetchStudy) Render() string {
	header := []string{"benchmark", "LRU+PF", "Sampler", "Sampler+PF", "acc(LRU+PF)%", "acc(S+PF)%"}
	var rows [][]string
	norm := map[string][]float64{}
	var accPol, accDead []float64
	demand := func(r prefetch.Result) float64 { return r.DemandMPKI }
	for _, b := range st.Benchmarks {
		base := st.val("LRU", b, demand)
		row := []string{b}
		for _, cfg := range []string{"LRU+PF", "Sampler", "Sampler+PF"} {
			v := st.val(cfg, b, demand) / base
			norm[cfg] = append(norm[cfg], v)
			row = append(row, fmtVal("%.3f", v))
		}
		ap := st.val("LRU+PF", b, prefetch.Result.Accuracy)
		ad := st.val("Sampler+PF", b, prefetch.Result.Accuracy)
		accPol = append(accPol, ap)
		accDead = append(accDead, ad)
		row = append(row, fmtVal("%.1f", ap*100), fmtVal("%.1f", ad*100))
		rows = append(rows, row)
	}
	mean := []string{"amean"}
	for _, cfg := range []string{"LRU+PF", "Sampler", "Sampler+PF"} {
		mean = append(mean, fmtVal("%.3f", meanFinite(norm[cfg])))
	}
	mean = append(mean,
		fmtVal("%.1f", meanFinite(accPol)*100),
		fmtVal("%.1f", meanFinite(accDead)*100))
	rows = append(rows, mean)
	return renderTable("Prefetch study: demand MPKI normalized to LRU; degree-4 sequential prefetcher", header, rows)
}
