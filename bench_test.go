// Benchmarks regenerating every table and figure in the paper's
// evaluation section. Each benchmark runs the corresponding experiment
// harness end to end and reports its headline quantity as a custom
// metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The stream scale defaults to 0.1 of
// the suite's full length to keep a complete -bench=. pass to a few
// minutes; set SDBP_BENCH_SCALE=1.0 for full-length runs (the numbers
// recorded in EXPERIMENTS.md).
package sdbp

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"sdbp/internal/exp"
	"sdbp/internal/figures"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/power"
	"sdbp/internal/predictor"
	"sdbp/internal/probe"
	"sdbp/internal/sampling"
	"sdbp/internal/sim"
	"sdbp/internal/stats"
	"sdbp/internal/workloads"
)

// metricName converts a policy name to a metric-safe token (no
// whitespace, per testing.B.ReportMetric's contract).
func metricName(prefix, pol string) string {
	return prefix + strings.ReplaceAll(pol, " ", "_")
}

func benchScale() float64 {
	if s := os.Getenv("SDBP_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

// BenchmarkClaimDeadTime reproduces the Section I claim: blocks in a
// 2MB LRU LLC are dead 86.2% of the time on average.
func BenchmarkClaimDeadTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := figures.RunSingleCoreEnv(figures.DefaultEnv(), benchScale())
		b.ReportMetric(sc.DeadTimeClaim()*100, "%dead")
	}
}

// BenchmarkFig1Efficiency reproduces Figure 1: 456.hmmer's cache
// efficiency on a 1MB LLC under LRU (paper: 22%) and under the sampler
// (paper: 87%).
func BenchmarkFig1Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := figures.RunFig1Env(figures.DefaultEnv(), benchScale())
		b.ReportMetric(f.LRUEfficiency*100, "%eff-lru")
		b.ReportMetric(f.SamplerEfficiency*100, "%eff-sampler")
	}
}

// BenchmarkTable1Storage reproduces Table I: predictor storage
// overheads (reftrace 72KB, counting 108KB; the sampler's stated-field
// arithmetic gives 8.69KB).
func BenchmarkTable1Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = figures.RenderTable1()
		s := predictor.NewSampler(predictor.DefaultSamplerConfig())
		s.Reset(2048, 16)
		b.ReportMetric(power.TotalKB(s.Storage()), "KB-sampler")
	}
}

// BenchmarkTable2Power reproduces Table II via the analytic CACTI
// substitute and reports the sampler's share of the baseline LLC
// leakage (paper: 1.2%).
func BenchmarkTable2Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = figures.RenderTable2()
		m := power.DefaultModel()
		s := predictor.NewSampler(predictor.DefaultSamplerConfig())
		s.Reset(2048, 16)
		rep := m.Evaluate("sampler", s.Storage())
		leak, _ := m.BaselineLLC()
		b.ReportMetric(rep.TotalLeakage()/leak*100, "%LLC-leak")
	}
}

// BenchmarkTable3Characterization reproduces Table III: MPKI under LRU
// and MIN and IPC under LRU for all 29 benchmarks.
func BenchmarkTable3Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3 := figures.RunTable3Env(figures.DefaultEnv(), benchScale())
		var lru, min float64
		for _, r := range t3.Rows {
			lru += r.MPKILRU
			min += r.MPKIMin
		}
		b.ReportMetric(min/lru, "min/lru-mpki")
	}
}

// BenchmarkTable4Mixes reproduces Table IV: the ten quad-core mixes'
// cache sensitivity curves over LLC sizes 128KB..32MB.
func BenchmarkTable4Mixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t4 := figures.RunTable4Env(figures.DefaultEnv(), benchScale())
		// Report the average capacity sensitivity: MPKI at 32MB over
		// MPKI at 128KB.
		var ratio float64
		for _, c := range t4.Curves {
			ratio += c[len(c)-1] / c[0]
		}
		b.ReportMetric(ratio/float64(len(t4.Curves)), "mpki-32M/128K")
	}
}

// BenchmarkFig4MissesLRU reproduces Figure 4: LLC misses normalized to
// LRU (paper ameans: TDBP 1.08, CDBP 0.954, DIP 0.939, RRIP 0.919,
// Sampler 0.883, Optimal 0.814).
func BenchmarkFig4MissesLRU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := figures.RunSingleCoreEnv(figures.DefaultEnv(), benchScale())
		lru := sc.Matrix.Series("LRU", func(r sim.SingleResult) float64 { return r.MPKI })
		for _, pol := range []string{"TDBP", "CDBP", "DIP", "RRIP", "Sampler"} {
			norm := stats.Normalize(sc.Matrix.Series(pol, func(r sim.SingleResult) float64 { return r.MPKI }), lru)
			b.ReportMetric(stats.Mean(norm), metricName("amean-", pol))
		}
	}
}

// BenchmarkFig5SpeedupLRU reproduces Figure 5: speedup over LRU (paper
// gmeans: TDBP ~1.00, CDBP 1.023, DIP 1.031, RRIP 1.041, Sampler
// 1.059).
func BenchmarkFig5SpeedupLRU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := figures.RunSingleCoreEnv(figures.DefaultEnv(), benchScale())
		lru := sc.Matrix.Series("LRU", func(r sim.SingleResult) float64 { return r.IPC })
		for _, pol := range []string{"TDBP", "CDBP", "DIP", "RRIP", "Sampler"} {
			sp := stats.Normalize(sc.Matrix.Series(pol, func(r sim.SingleResult) float64 { return r.IPC }), lru)
			b.ReportMetric(stats.GeoMean(sp), metricName("gmean-", pol))
		}
	}
}

// BenchmarkFig6Ablation reproduces Figure 6: the contribution of
// sampling, reduced sampler associativity, and the skewed organization
// (paper: 3.4%, 2.3%, 3.8%, 4.0%, 5.6%, 5.9%).
func BenchmarkFig6Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab := figures.RunAblationEnv(figures.DefaultEnv(), benchScale())
		b.ReportMetric(ab.Speedup["DBRB alone"], "gmean-alone")
		b.ReportMetric(ab.Speedup["DBRB+sampler"], "gmean-sampler")
		b.ReportMetric(ab.Speedup["DBRB+sampler+3 tables+12-way"], "gmean-full")
	}
}

// BenchmarkFig7MissesRandom reproduces Figure 7: misses normalized to
// LRU with a default random-replacement LLC (paper ameans: Random
// 1.025, Random CDBP ~1.0, Random Sampler 0.925).
func BenchmarkFig7MissesRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rb := figures.RunRandomBaselineEnv(figures.DefaultEnv(), benchScale())
		lru := rb.LRU.Series("LRU", func(r sim.SingleResult) float64 { return r.MPKI })
		for _, pol := range rb.Matrix.Policies {
			norm := stats.Normalize(rb.Matrix.Series(pol, func(r sim.SingleResult) float64 { return r.MPKI }), lru)
			b.ReportMetric(stats.Mean(norm), metricName("amean-", pol))
		}
	}
}

// BenchmarkFig8SpeedupRandom reproduces Figure 8: speedup over the LRU
// baseline with a default random-replacement LLC (paper: Random 0.989,
// Random CDBP 1.001, Random Sampler 1.034).
func BenchmarkFig8SpeedupRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rb := figures.RunRandomBaselineEnv(figures.DefaultEnv(), benchScale())
		lru := rb.LRU.Series("LRU", func(r sim.SingleResult) float64 { return r.IPC })
		for _, pol := range rb.Matrix.Policies {
			sp := stats.Normalize(rb.Matrix.Series(pol, func(r sim.SingleResult) float64 { return r.IPC }), lru)
			b.ReportMetric(stats.GeoMean(sp), metricName("gmean-", pol))
		}
	}
}

// BenchmarkFig9Accuracy reproduces Figure 9: predictor coverage and
// false positive rates (paper means: reftrace 88%/19.9%, counting
// 67%/7.19%, sampling 59%/3.0%).
func BenchmarkFig9Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := figures.RunSingleCoreEnv(figures.DefaultEnv(), benchScale())
		for _, pol := range []string{"TDBP", "CDBP", "Sampler"} {
			var cov, fp float64
			for _, bench := range sc.Matrix.Benchmarks {
				r := sc.Matrix.Get(bench, pol)
				if r.Accuracy != nil {
					cov += r.Accuracy.Coverage()
					fp += r.Accuracy.FalsePositiveRate()
				}
			}
			n := float64(len(sc.Matrix.Benchmarks))
			b.ReportMetric(cov/n*100, metricName("%cov-", pol))
			b.ReportMetric(fp/n*100, metricName("%fp-", pol))
		}
	}
}

// BenchmarkFig10aMulticoreLRU reproduces Figure 10(a): quad-core
// normalized weighted speedup with an LRU default (paper gmeans:
// Sampler 1.125, CDBP 1.10, TADIP 1.076, TDBP 1.056, RRIP 1.045).
func BenchmarkFig10aMulticoreLRU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mc := figures.RunMulticoreFigureEnv(figures.DefaultEnv(), figures.MulticorePolicies(), benchScale())
		for _, pol := range mc.Policies {
			var ws []float64
			for _, mix := range mc.Mixes {
				ws = append(ws, mc.WeightedSpeedup[pol][mix])
			}
			b.ReportMetric(stats.GeoMean(ws), metricName("gmean-", pol))
		}
	}
}

// BenchmarkFig10bMulticoreRandom reproduces Figure 10(b): quad-core
// normalized weighted speedup with a random default (paper gmeans:
// Random Sampler 1.07, Random CDBP 1.06, Random ~1.0).
func BenchmarkFig10bMulticoreRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mc := figures.RunMulticoreFigureEnv(figures.DefaultEnv(), figures.RandomPolicies(), benchScale())
		for _, pol := range mc.Policies {
			var ws []float64
			for _, mix := range mc.Mixes {
				ws = append(ws, mc.WeightedSpeedup[pol][mix])
			}
			b.ReportMetric(stats.GeoMean(ws), metricName("gmean-", pol))
		}
	}
}

// BenchmarkHierarchyAccess measures the private-level layer the drive
// loops run: hier.Core.FilterBlock over 4096-access chunks (the drive
// loops' chunk size) of the 456.hmmer stream, restarting the stream on
// the same warm core when it runs out. The stream is generated before
// the timer starts, so one op is one chunk through L1 and L2 and
// ns/access excludes generation (not a paper figure; a performance
// guard for the substrate itself).
func BenchmarkHierarchyAccess(b *testing.B) {
	const chunk = 4096
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		b.Fatal(err)
	}
	gen := w.Generator(1)
	stream := make([]mem.Access, w.Accesses(1))
	n := 0
	for n < len(stream) {
		k := gen.NextBatch(stream[n:])
		if k == 0 {
			break
		}
		n += k
	}
	stream = stream[:n]
	core := hier.NewCore(hier.DefaultConfig(), nil)
	recs := make([]hier.Filtered, chunk)
	accesses := 0
	b.ResetTimer()
	for i, pos := 0, 0; i < b.N; i++ {
		if pos == len(stream) {
			pos = 0
		}
		k := min(chunk, len(stream)-pos)
		core.FilterBlock(stream[pos:pos+k], recs)
		pos += k
		accesses += k
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
}

// BenchmarkSampledReplay measures the sampled replay layer:
// sim.RunSampledTrace under the Sampler policy over an every-interval
// plan of the 456.hmmer ×0.1 stream. The plan is materialized before
// the timer starts, so one op is one policy's replay (LLC leg and
// timing leg) and ns/record excludes generation and private filtering;
// a record is one warm-up or measured access of a window (not a paper
// figure; a performance guard for the replay).
func BenchmarkSampledReplay(b *testing.B) {
	const scale, interval = 0.1, 100_000
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		b.Fatal(err)
	}
	sampler, err := exp.ResolvePolicy("Sampler")
	if err != nil {
		b.Fatal(err)
	}
	pilot := sim.RunSingle(w, policy.NewLRU(), sim.SingleOptions{Scale: scale, Probe: &probe.Config{Interval: interval}})
	plan, err := sampling.AllIntervals(pilot.Probe.Intervals, interval)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.MaterializeSampled(w, &plan, scale)
	if err != nil {
		b.Fatal(err)
	}
	records := 0
	for _, win := range m.Windows {
		records += len(win.Warm) + len(win.Measure)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSampledTrace(m, sampler.Make(1), sim.SingleOptions{Scale: scale}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// BenchmarkExtensions runs the beyond-the-paper comparison: cache
// bursts (Liu et al.), AIP (Kharbutli & Solihin), the sampling counting
// predictor (the paper's Section VIII future work), and PLRU bases.
func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := figures.RunExtensionsEnv(figures.DefaultEnv(), benchScale())
		lru := e.LRU.Series("LRU", func(r sim.SingleResult) float64 { return r.MPKI })
		for _, pol := range e.Matrix.Policies {
			norm := stats.Normalize(e.Matrix.Series(pol, func(r sim.SingleResult) float64 { return r.MPKI }), lru)
			b.ReportMetric(stats.Mean(norm), metricName("amean-", pol))
		}
	}
}

// BenchmarkAblationSamplerSets sweeps the sampler's set count (the
// paper's Section III-A design decision: 32 sets is the trade-off
// point).
func BenchmarkAblationSamplerSets(b *testing.B) {
	sets := []int{8, 32, 128}
	for i := 0; i < b.N; i++ {
		res := figures.SamplerSetsSweepEnv(figures.DefaultEnv(), benchScale(), sets)
		for _, n := range sets {
			b.ReportMetric(res[n], fmt.Sprintf("gmean-%dsets", n))
		}
	}
}

// BenchmarkAblationThreshold sweeps the dead-prediction confidence
// threshold (the paper's Section III-E design decision: 8 of 9 gives
// the best accuracy).
func BenchmarkAblationThreshold(b *testing.B) {
	thrs := []int{2, 8, 9}
	for i := 0; i < b.N; i++ {
		res := figures.ThresholdSweepEnv(figures.DefaultEnv(), benchScale(), thrs)
		for _, th := range thrs {
			b.ReportMetric(res[th], fmt.Sprintf("gmean-thr%d", th))
		}
	}
}

// BenchmarkPrefetchStudy runs the dead-block-directed prefetching
// application study: sequential prefetching with polluting vs.
// dead-block placement.
func BenchmarkPrefetchStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := figures.RunPrefetchStudyEnv(figures.DefaultEnv(), benchScale())
		var accDead float64
		for _, bench := range st.Benchmarks {
			accDead += st.Results["Sampler+PF"][bench].Accuracy()
		}
		b.ReportMetric(accDead/float64(len(st.Benchmarks))*100, "%pf-accuracy")
	}
}

// BenchmarkVictimStudy runs the dead-block-filtered victim cache
// application study (Hu et al.'s use case): filtering insertions by
// predicted liveness concentrates the buffer on blocks with a future.
func BenchmarkVictimStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := figures.RunVictimStudyEnv(figures.DefaultEnv(), benchScale())
		var yu, yf float64
		for _, bench := range st.Benchmarks {
			yu += st.Results["unfiltered"][bench].HitsPerInsert()
			yf += st.Results["dead-filtered"][bench].HitsPerInsert()
		}
		n := float64(len(st.Benchmarks))
		b.ReportMetric(yu/n, "yield-unfiltered")
		b.ReportMetric(yf/n, "yield-filtered")
	}
}
