package main

import (
	"fmt"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/dbrb"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/predictor"
)

// layerAgg sums a traced run's attribution and the statistics its ratios
// are computed from. Metrics of a layer the workload does not exercise
// stay 0.
type layerAgg struct {
	lt       layerTimes    // traced reconstructions, summed
	untraced time.Duration // the same reconstructions with the clock off
	l1, l2   cache.Stats
	llc      cache.Stats
	acc      dbrb.Accuracy // Sampler cells only
	updates  []float64     // Sampler update fractions

	extraNs     float64
	instrFill   time.Duration // workloads.Instructions memo fill
	materialize time.Duration // sim.MaterializeSampled, all benchmarks of the run
	replays     []float64     // sim.RunSampledTrace calls, seconds
	resolve     time.Duration // exp.Spec.Resolve / exp.ResolvePolicy
	resolves    int
}

// observe records a Sampler policy's prediction quality after its run.
func (a *layerAgg) observe(policy string, pol cache.Policy) {
	if policy != "Sampler" {
		return
	}
	d, ok := pol.(accuracyReporter)
	if !ok {
		return
	}
	acc := d.Accuracy()
	a.acc.Predictions += acc.Predictions
	a.acc.Positives += acc.Positives
	a.acc.FalsePositives += acc.FalsePositives
	if s, ok := d.Predictor().(*predictor.Sampler); ok {
		a.updates = append(a.updates, s.UpdateFraction())
	}
}

// single runs one cell three ways — the program's own sim.RunSingle, the
// traced reconstruction, and the reconstruction with the clock off —
// and fails unless all three agree with the reference digest and the
// trace reconciles.
func (a *layerAgg) single(c cell, workload string, want simStats, capture *[]mem.Access) error {
	r := c.res
	w, llcCfg := r.Workloads[0], r.LLCFor(r.Cores)
	pol := r.Policy.Make(r.Cores)
	got, lt, err := replaySingle(w, pol, r.Scale, llcCfg, true, capture)
	if err != nil {
		return err
	}
	gs := singleStats(got)
	if workload == "svc-mixed" {
		gs = svcStats(got.IPC, got.Cycles, got.Instructions, got.LLC)
	}
	if g, w := gs.digest(), want.digest(); g != w {
		return fmt.Errorf("%s %s: traced reconstruction's statistics (%s) differ from the program's (%s)", workload, c.key, g, w)
	}
	if err := lt.reconcile(got.L1.Accesses, got.LLC.Accesses, 0); err != nil {
		return fmt.Errorf("%s %s: %w", workload, c.key, err)
	}
	_, plain, err := replaySingle(w, r.Policy.Make(r.Cores), r.Scale, llcCfg, false, nil)
	if err != nil {
		return err
	}
	a.lt.add(lt)
	a.untraced += plain.wall
	a.l1, a.l2, a.llc = a.l1.Add(got.L1), a.l2.Add(got.L2), a.llc.Add(got.LLC)
	a.observe(r.Policy.Name, pol)
	return nil
}

// multi is single for a quad-core mix cell.
func (a *layerAgg) multi(c cell, want simStats, capture *[]mem.Access) error {
	r := c.res
	llcCfg := r.LLCFor(4)
	pol := r.Policy.Make(4)
	got, lt, err := replayMulticore(r.Mixes[0], pol, r.Scale, llcCfg, true, capture)
	if err != nil {
		return err
	}
	if g, w := multiStats(got).digest(), want.digest(); g != w {
		return fmt.Errorf("quad-mix %s: traced reconstruction's statistics (%s) differ from sim.RunMulticore's (%s)", c.key, g, w)
	}
	if err := lt.reconcile(got.L1.Accesses, got.LLC.Accesses, 4*mcChunk); err != nil {
		return fmt.Errorf("quad-mix %s: %w", c.key, err)
	}
	_, plain, err := replayMulticore(r.Mixes[0], r.Policy.Make(4), r.Scale, llcCfg, false, nil)
	if err != nil {
		return err
	}
	a.lt.add(lt)
	a.untraced += plain.wall
	a.l1, a.l2, a.llc = a.l1.Add(got.L1), a.l2.Add(got.L2), a.llc.Add(got.LLC)
	a.observe(r.Policy.Name, pol)
	return nil
}

// sampled is single for one sampled replay. The private levels ran at
// materialization; their outcome is read from the windows' levels.
func (a *layerAgg) sampled(z zooBench, p exp.Policy, want simStats) error {
	llcCfg := hier.LLCConfig(1)
	pol := p.Make(1)
	got, lt := replaySampled(z.m, pol, llcCfg, true)
	want.Instructions, want.Estimate = nil, nil // not rebuilt: derived from the plan
	if g, w := got.digest(), want.digest(); g != w {
		return fmt.Errorf("sampled-zoo %s: traced reconstruction's statistics (%s) differ from sim.RunSampledTrace's (%s)", zooKey(z, p.Name), g, w)
	}
	if err := lt.reconcile(0, got.LLC.Accesses, 0); err != nil {
		return fmt.Errorf("sampled-zoo %s: %w", zooKey(z, p.Name), err)
	}
	_, plain := replaySampled(z.m, p.Make(1), llcCfg, false)
	a.lt.add(lt)
	a.untraced += plain.wall
	for _, win := range z.m.Windows {
		for _, ma := range win.Measure {
			a.l1.Accesses++
			switch ma.Level {
			case hier.LevelL1:
				a.l1.Hits++
			case hier.LevelL2:
				a.l2.Accesses++
				a.l2.Hits++
			default:
				a.l2.Accesses++
			}
		}
	}
	a.llc = a.llc.Add(got.LLC)
	a.observe(p.Name, pol)
	return nil
}

// report sets every per-layer metric.
func (a *layerAgg) report(rep *report) {
	lt := a.lt
	rep.set("trace.busy_s", lt.trace.Seconds(), "s")
	rep.set("trace.ns_per_access", nsPer(lt.trace, lt.accesses), "ns")
	rep.set("trace.accesses", float64(lt.accesses), "count")
	rep.set("hier.busy_s", lt.hier.Seconds(), "s")
	rep.set("hier.ns_per_access", nsPer(lt.hier, lt.accesses), "ns")
	rep.set("hier.l1_hit_ratio", ratio(a.l1.Hits, a.l1.Accesses), "ratio")
	rep.set("hier.l2_hit_ratio", ratio(a.l2.Hits, a.l2.Accesses), "ratio")
	rep.set("hier.llc_bound", float64(lt.llcBound), "count")
	rep.set("cache.busy_s", lt.cache.Seconds(), "s")
	rep.set("cache.ns_per_access", nsPer(lt.cache, a.llc.Accesses), "ns")
	rep.set("cache.accesses", float64(a.llc.Accesses), "count")
	rep.set("cache.miss_ratio", ratio(a.llc.Misses, a.llc.Accesses), "ratio")
	rep.set("cache.bypass_ratio", ratio(a.llc.Bypasses, a.llc.Accesses), "ratio")
	rep.set("dbrb.extra_ns_per_access", a.extraNs, "ns")
	rep.set("dbrb.coverage", a.acc.Coverage(), "ratio")
	rep.set("dbrb.false_positive_rate", a.acc.FalsePositiveRate(), "ratio")
	rep.set("predictor.update_fraction", median(a.updates), "ratio")
	rep.set("cpu.busy_s", lt.cpu.Seconds(), "s")
	rep.set("cpu.ns_per_access", nsPer(lt.cpu, lt.records), "ns")
	rep.set("sim.merge_self_s", lt.merge.Seconds(), "s")
	rep.set("sim.loop_self_s", (lt.wall - lt.layers()).Seconds(), "s")
	rep.set("sim.materialize_s", a.materialize.Seconds(), "s")
	rep.set("sim.replay_s", median(a.replays), "s")
	rep.set("workloads.instructions_s", a.instrFill.Seconds(), "s")
	rep.set("exp.resolve_us", float64(a.resolve)/float64(time.Microsecond)/float64(max(a.resolves, 1)), "us")
	rep.set("tracing.wall_s", lt.wall.Seconds(), "s")
	overhead := 0.0
	if a.untraced > 0 {
		overhead = float64(lt.wall)/float64(a.untraced) - 1
	}
	rep.set("tracing.overhead", overhead, "ratio")
	for _, name := range []string{"serve.decode_ms", "serve.cache_lookup_ms", "serve.queue_wait_ms",
		"serve.coalesce_ms", "serve.run_ms", "serve.store_ms"} {
		rep.set(name, 0, "ms")
	}
	for _, name := range []string{"serve.singleflight_shared", "serve.queue_rejects", "runner.attempts", "runner.retries"} {
		rep.set(name, 0, "count")
	}
	rep.set("serve.cache_hit_ratio", 0, "ratio")
	rep.note("traced: wall %.3fs untraced %.3fs (overhead %.1f%%); spans trace %.3fs hier %.3fs cache %.3fs cpu %.3fs merge %.3fs self %.3fs",
		lt.wall.Seconds(), a.untraced.Seconds(), 100*overhead, lt.trace.Seconds(), lt.hier.Seconds(),
		lt.cache.Seconds(), lt.cpu.Seconds(), lt.merge.Seconds(), lt.self.Seconds())
}

// tracedRounds runs the traced workload round by round like
// measureRounds, but stops after the first round past d: every traced
// cell runs three times, and a quad-mix round alone takes about a minute.
func tracedRounds(d time.Duration, groups, perGroup int, op func(g, i int)) {
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < d; r++ {
		for i := 0; i < perGroup; i++ {
			op(r%groups, i)
		}
	}
}

func traceSCSweep(cfg config, refs refs) (*report, error) {
	benches := draw(cfg.seed, scBenches, scDraw)
	var agg layerAgg
	t0 := time.Now()
	cells, err := resolveSC(benches)
	if err != nil {
		return nil, err
	}
	agg.resolve, agg.resolves = time.Since(t0), len(benches)*len(scPolicies)
	rep := newReport()
	var stream []mem.Access
	tracedRounds(cfg.measure(), len(cells), len(scPolicies), func(g, i int) {
		c := cells[g][i]
		want := singleStats(c.runSingle())
		err := refs.verify("sc-sweep", c.key, want)
		if err == nil {
			var capture *[]mem.Access
			if stream == nil {
				capture = &stream
			}
			err = agg.single(c, "sc-sweep", want, capture)
		}
		rep.check(err)
	})
	if agg.extraNs, err = dbrbExtra(stream, hier.LLCConfig(1), 1, 5); err != nil {
		return nil, err
	}
	agg.report(rep)
	rep.note("sc-sweep traced benches=%v policies=%v", benches, scPolicies)
	return rep, nil
}

func traceQuadMix(cfg config, refs refs) (*report, error) {
	mixes := draw(cfg.seed, quadMixes, quadDraw)
	var agg layerAgg
	t0 := time.Now()
	cells, fill, err := setupQuad(mixes)
	if err != nil {
		return nil, err
	}
	agg.resolve, agg.resolves = time.Since(t0)-fill, len(mixes)*len(quadPolicies)
	agg.instrFill = fill
	rep := newReport()
	var stream []mem.Access
	tracedRounds(cfg.measure(), len(cells), len(quadPolicies), func(g, i int) {
		c := cells[g][i]
		res, err := c.runMix()
		want := multiStats(res)
		if err == nil {
			err = refs.verify("quad-mix", c.key, want)
		}
		if err == nil {
			var capture *[]mem.Access
			if stream == nil {
				capture = &stream
			}
			err = agg.multi(c, want, capture)
		}
		rep.check(err)
	})
	if agg.extraNs, err = dbrbExtra(stream, hier.LLCConfig(4), 4, 3); err != nil {
		return nil, err
	}
	agg.report(rep)
	rep.note("quad-mix traced mixes=%v policies=%v", mixes, quadPolicies)
	return rep, nil
}

func traceSampledZoo(cfg config, refs refs) (*report, error) {
	benches := draw(cfg.seed, zooBenches, zooDraw)
	var agg layerAgg
	t0 := time.Now()
	pols, err := resolvePolicies(zooPolicies)
	if err != nil {
		return nil, err
	}
	agg.resolve, agg.resolves = time.Since(t0), len(pols)
	t1 := time.Now()
	zoo, err := materializeZoo(cfg.root, benches)
	if err != nil {
		return nil, err
	}
	agg.materialize = time.Since(t1)
	rep := newReport()
	tracedRounds(cfg.measure(), len(zoo), len(pols), func(g, i int) {
		z := zoo[g]
		t := time.Now()
		res, err := replayZoo(z, pols[i])
		agg.replays = append(agg.replays, time.Since(t).Seconds())
		if err == nil {
			err = refs.verify("sampled-zoo", zooKey(z, zooPolicies[i]), sampledStats(res))
		}
		if err == nil {
			err = agg.sampled(z, pols[i], sampledStats(res))
		}
		rep.check(err)
	})
	var stream []mem.Access
	for _, win := range zoo[0].m.Windows {
		stream = append(stream, win.Warm...)
		for _, ma := range win.Measure {
			if ma.Level == hier.LevelMemory {
				a := ma.Access
				a.Gap = ma.LLCGap
				stream = append(stream, a)
			}
		}
	}
	if agg.extraNs, err = dbrbExtra(stream, hier.LLCConfig(1), 1, 5); err != nil {
		return nil, err
	}
	agg.report(rep)
	rep.note("sampled-zoo traced benches=%v policies=%v", benches, zooPolicies)
	return rep, nil
}
