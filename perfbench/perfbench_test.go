package main

import (
	"testing"
	"time"

	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/sim"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// The traced run's reconciliation: each rebuilt drive loop must
// reproduce the program's own call bit for bit, its spans must tile its
// wall time within reconcileSlack + 2%, trace must have generated the
// accesses the L1 counted, and hier must have handed the LLC the accesses
// the LLC counted. reconcile enforces the last three.

func mustPolicy(t *testing.T, name string) exp.Policy {
	t.Helper()
	p, err := exp.ResolvePolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReconcileSingle(t *testing.T) {
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"LRU", "Sampler"} {
		p := mustPolicy(t, name)
		llc := hier.LLCConfig(1)
		want := sim.RunSingle(w, p.Make(1), sim.SingleOptions{Scale: 0.1, LLC: llc})
		got, lt, err := replaySingle(w, p.Make(1), 0.1, llc, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := singleStats(got).digest(), singleStats(want).digest(); g != w {
			t.Fatalf("%s: rebuilt loop digest %s, sim.RunSingle %s\ngot  %+v\nwant %+v", name, g, w, got, want)
		}
		if err := lt.reconcile(got.L1.Accesses, got.LLC.Accesses, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lt.accesses != got.L1.Accesses || lt.llcBound != got.LLC.Accesses || lt.records != lt.accesses {
			t.Fatalf("%s: counts trace %d hier→llc %d cpu %d; L1 %d LLC %d", name, lt.accesses, lt.llcBound, lt.records, got.L1.Accesses, got.LLC.Accesses)
		}
	}
}

func TestReconcileMulticore(t *testing.T) {
	mix := workloads.Mixes()[1] // mix2, a quad-mix pool entry
	p := mustPolicy(t, "Sampler")
	llc := hier.LLCConfig(4)
	want, err := sim.RunMulticore(mix, p.Make(4), sim.MulticoreOptions{Scale: 0.05, LLC: llc})
	if err != nil {
		t.Fatal(err)
	}
	got, lt, err := replayMulticore(mix, p.Make(4), 0.05, llc, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := multiStats(got).digest(), multiStats(want).digest(); g != w {
		t.Fatalf("rebuilt merge digest %s, sim.RunMulticore %s\ngot  %+v\nwant %+v", g, w, got, want)
	}
	if err := lt.reconcile(got.L1.Accesses, got.LLC.Accesses, 4*mcChunk); err != nil {
		t.Fatal(err)
	}
	if lt.records != got.L1.Accesses {
		t.Fatalf("cpu timed %d records, the L1 counted %d", lt.records, got.L1.Accesses)
	}
}

func TestReconcileSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes a scale-8 stream")
	}
	zoo, err := materializeZoo("..", []string{"456.hmmer"})
	if err != nil {
		t.Fatal(err)
	}
	p := mustPolicy(t, "Sampler")
	want, err := replayZoo(zoo[0], p)
	if err != nil {
		t.Fatal(err)
	}
	got, lt := replaySampled(zoo[0].m, p.Make(1), hier.LLCConfig(1), true)
	ws := sampledStats(want)
	ws.Instructions, ws.Estimate = nil, nil
	if g, w := got.digest(), ws.digest(); g != w {
		t.Fatalf("rebuilt replay digest %s, sim.RunSampledTrace %s\ngot  %+v\nwant %+v", g, w, got, ws)
	}
	if err := lt.reconcile(0, got.LLC.Accesses, 0); err != nil {
		t.Fatal(err)
	}
}

// TestServiceTraces drives a short traced svc-mixed run: every answered
// job's trace must pass serve.CheckTrace and every manifest its digest,
// and the rebuilt run stages must reconcile.
func TestServiceTraces(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := traceSvcMixed(config{workload: "svc-mixed", seed: DefaultSeed, seconds: 0.5, root: ".."}, refs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
	}
	if rep.metrics["runner.attempts"].Value == 0 || rep.metrics["serve.run_ms"].Value == 0 {
		t.Fatalf("no checked miss traces: %+v", rep.metrics)
	}
}

// TestLatencyClusters pins the resubmission share's purpose: hits and
// misses form two separate latency clusters, so each reported median
// sits inside one of them.
func TestLatencyClusters(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	bodies, keys, err := svcInputs()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	results, _ := srv.drive(time.Second, svcPlan(HeldOutSeed, len(bodies)), bodies, keys, refs, nil)
	if err := srv.stop(); err != nil {
		t.Fatal(err)
	}
	var hit, miss []float64
	for _, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		switch r.source {
		case "hit":
			hit = append(hit, ms(r.lat))
		case "miss":
			miss = append(miss, ms(r.lat))
		}
	}
	if len(hit) < 5 || len(miss) < 5 {
		t.Fatalf("too few samples: %d hits, %d misses", len(hit), len(miss))
	}
	if h, m := quantile(hit, 0.95), quantile(miss, 0.05); h >= m {
		t.Fatalf("latency clusters overlap: hit p95 %.3f ms >= miss p5 %.3f ms", h, m)
	}
}

// streamLength counts a workload's accesses at a small scale; equal
// counts mean equal lengths at every scale.
func streamLength(t *testing.T, name string) int {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	bg := w.Generator(0.01).(trace.BatchGenerator)
	var buf [block]mem.Access
	n := 0
	for k := bg.NextBatch(buf[:]); k > 0; k = bg.NextBatch(buf[:]) {
		n += k
	}
	return n
}

// TestSeedPools shows that the default and the held-out seed both draw
// distinct, reproducible entries from pools of equal-length entries. The
// sc-sweep benchmarks (which svc-mixed specs also draw from) stream
// equally many accesses; the quad-mix and sampled-zoo pools are equal in
// simulated length, measured once and recorded beside each pool.
func TestSeedPools(t *testing.T) {
	want := streamLength(t, scBenches[0])
	for _, b := range scBenches {
		if n := streamLength(t, b); n != want {
			t.Errorf("%s streams %d accesses at scale 0.01, pool entries %d", b, n, want)
		}
	}
	for _, s := range svcPool() {
		if n := streamLength(t, s.Workloads[0]); n != want {
			t.Fatalf("svc spec %s streams %d accesses, pool entries %d", svcKey(s), n, want)
		}
	}
	for _, m := range quadMixes {
		found := false
		for _, mix := range workloads.Mixes() {
			found = found || mix.Name == m
		}
		if !found {
			t.Errorf("quad pool names unknown mix %s", m)
		}
	}
	differ := false
	for _, seed := range []int64{DefaultSeed, HeldOutSeed} {
		for _, c := range []struct {
			pool []string
			k    int
		}{{scBenches, scDraw}, {quadMixes, quadDraw}, {zooBenches, zooDraw}} {
			got := draw(seed, c.pool, c.k)
			if again := draw(seed, c.pool, c.k); len(got) != c.k || !equal(got, again) {
				t.Fatalf("seed %d: draw %v, again %v", seed, got, again)
			}
			seen := map[string]bool{}
			for _, e := range got {
				if seen[e] {
					t.Fatalf("seed %d: draw %v repeats %s", seed, got, e)
				}
				seen[e] = true
			}
			differ = differ || !equal(got, draw(HeldOutSeed+DefaultSeed-seed, c.pool, c.k))
		}
		seq := svcPlan(seed, len(svcPool()))
		if len(seq) < len(svcPool()) {
			t.Fatalf("seed %d: svc plan submits %d specs, pool holds %d", seed, len(seq), len(svcPool()))
		}
	}
	if !differ {
		t.Fatal("the held-out seed draws the same inputs as the default seed")
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDigestGate shows the gate fails on a perturbed statistic and on an
// operation without a reference.
func TestDigestGate(t *testing.T) {
	r := refs{"w": {"k": simStats{IPC: []float64{0.75}, Cycles: 100}.digest()}}
	if err := r.verify("w", "k", simStats{IPC: []float64{0.75}, Cycles: 100}); err != nil {
		t.Fatal(err)
	}
	if err := r.verify("w", "k", simStats{IPC: []float64{0.75}, Cycles: 101}); err == nil {
		t.Fatal("a perturbed cycle count passed the gate")
	}
	if err := r.verify("w", "other", simStats{}); err == nil {
		t.Fatal("an operation without a reference passed the gate")
	}
}
