package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/sampling"
	"sdbp/internal/serve"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// The three library workloads drive sim directly, one (benchmark or
// mix, policy) cell at a time. Every pool below holds entries of equal
// stream length, so a seed changes which inputs run but not how much
// work one operation is.

// scBenches are memory-intensive subset benchmarks whose stream is 2.8M
// accesses at scale 1 — above the stream memo's 512K cap, so every cell
// generates its stream — and whose cells cost alike (0.49–0.60 s under
// LRU and Sampler on a 2-CPU host; 400.perlbench, also 2.8M accesses,
// takes 0.64–0.69 s and is left out).
var scBenches = []string{"401.bzip2", "429.mcf", "450.soplex", "456.hmmer", "462.libquantum"}

// scPolicies spans the paper's comparison set: LRU, the sampler, the
// reftrace and counting DBPs, DIP, RRIP, and SHiP.
var scPolicies = []string{"LRU", "Sampler", "TDBP", "CDBP", "DIP", "RRIP", "SHiP"}

const scDraw = 3 // benchmarks per run

// quadMixes are the Table IV mixes of equal simulated length and cost: a
// cell runs until every member finished one pass, and these two run
// 22.95M and 23.74M demand accesses under LRU in about 3.1 s each on a
// 2-CPU host. mix4 runs as many accesses but 25% faster; the other mixes
// run 12M to 64M. Their Sampler cells differ (3.7 s and 3.2 s), so a run
// that drew one would set the latency tail by its draw: every run runs
// both, and the seed sets their order.
var quadMixes = []string{"mix2", "mix8"}

var quadPolicies = []string{"LRU", "Sampler", "TDBP"}

const quadDraw = 2 // mixes per run

// zooBenches are the committed scale-8 plans of equal sampled length:
// one replay drives 5.41M (429.mcf) and 5.37M (433.milc) records in
// about 0.58 s. The other plans drive 3.9M to 5.9M, so the pool holds
// exactly these two, both run every time, and the seed sets their order.
var zooBenches = []string{"429.mcf", "433.milc"}

// zooPolicies is a broad cut of the policy registry: recency baselines,
// insertion and re-reference policies, and five dead-block predictors.
var zooPolicies = []string{"LRU", "NRU", "PLRU", "DIP", "RRIP", "SHiP", "Sampler", "TDBP", "CDBP", "Skewed DBP"}

const zooDraw = 2 // benchmarks per run

// sampledPlansPath is the committed plan set, read only.
const sampledPlansPath = "cmd/experiments/testdata/sampled/plans.json"

// A run repeats its set-up and reports the median as setup_s: many
// times where set-up takes microseconds, three times where it
// materializes sampled streams for seconds.
const (
	quickSetupReps = 15
	slowSetupReps  = 3
)

// draw picks k distinct pool entries, in seeded order.
func draw(seed int64, pool []string, k int) []string {
	perm := rand.New(rand.NewSource(seed)).Perm(len(pool))
	out := make([]string, k)
	for i := range out {
		out[i] = pool[perm[i]]
	}
	return out
}

// cell is one simulation, resolved through the experiment registry
// exactly as a spec handed to the tools would be.
type cell struct {
	key  string
	spec exp.Spec
	res  *exp.Resolved
}

func resolveCell(bench, mix, policy string, scale float64, llc string) (cell, error) {
	spec := exp.Spec{Policy: policy, Scale: scale, LLC: llc}
	key := bench + "|" + policy
	if mix != "" {
		spec.Mixes = []string{mix}
		key = mix + "|" + policy
	} else {
		spec.Workloads = []string{bench}
	}
	if llc != "" {
		key += "|" + llc
	}
	r, err := spec.Resolve()
	if err != nil {
		return cell{}, err
	}
	return cell{key: key, spec: spec, res: r}, nil
}

func (c cell) runSingle() sim.SingleResult {
	r := c.res
	return sim.RunSingle(r.Workloads[0], r.Policy.Make(r.Cores), sim.SingleOptions{Scale: r.Scale, LLC: r.LLCFor(r.Cores)})
}

func (c cell) runMix() (sim.MulticoreResult, error) {
	r := c.res
	return sim.RunMulticore(r.Mixes[0], r.Policy.Make(4), sim.MulticoreOptions{Scale: r.Scale, LLC: r.LLCFor(4)})
}

// answer is the cell answered without simulating, as a result cache
// would: resolve its spec again, address it, and check the result.
func (c cell) answer(refs refs, workload string, s simStats) {
	r, err := c.spec.Resolve()
	if err != nil {
		return
	}
	serve.Addr(r.String())
	refs.verify(workload, c.key, s)
}

func resolvePolicies(names []string) ([]exp.Policy, error) {
	out := make([]exp.Policy, len(names))
	for i, n := range names {
		p, err := exp.ResolvePolicy(n)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// timeSetups runs setup reps times and returns each repetition's
// duration, the first timed from process start. reset, when non-nil,
// runs untimed before each repetition after the first.
func timeSetups(reps int, reset func(), setup func() error) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		if i > 0 && reset != nil {
			reset()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		if err := setup(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

// libOp is one timed library operation.
type libOp struct {
	total    time.Duration // policy construction, simulation, digest check
	sim      time.Duration // the simulation call alone
	accesses uint64        // demand accesses simulated (replayed, for sampled runs)
	// answer is what answering the operation from a result cache costs:
	// resolving its spec, content-addressing the canonical form (library
	// cells; a sampled replay has no spec form), and checking the
	// result's digest — the median of answerReps repetitions.
	answer time.Duration
}

// answerReps is how often an operation's answer path is timed.
const answerReps = 25

// timeAnswer returns the median duration of answerReps calls of answer,
// timed after a collection so that the preceding simulation's garbage
// does not slow a microsecond-scale path by chance.
func timeAnswer(answer func()) time.Duration {
	runtime.GC()
	ds := make([]time.Duration, answerReps)
	for i := range ds {
		t0 := time.Now()
		answer()
		ds[i] = time.Since(t0)
	}
	return medianDur(ds)
}

// measureRounds runs operations round by round — round r runs every op of
// group r mod groups — until every group ran once and d has passed at a
// round boundary, so every drawn input runs, and every policy equally
// often, whatever the machine's speed.
func measureRounds(d time.Duration, groups, perGroup int, op func(g, i int) libOp) ([]libOp, time.Duration) {
	start := time.Now()
	var ops []libOp
	for r := 0; r < groups || time.Since(start) < d; r++ {
		for i := 0; i < perGroup; i++ {
			ops = append(ops, op(r%groups, i))
		}
	}
	return ops, time.Since(start)
}

// libMetrics fills the end-to-end metrics of a library workload. An
// operation is one cell, run by one client in a closed loop. Every cell
// simulates, so the "miss" latencies are whole-operation latencies, the
// "hit" latency is the operation's answer without its simulation, and
// the rates are medians over cells, which one slow cell cannot move.
func libMetrics(rep *report, setups []time.Duration, ops []libOp, elapsed time.Duration) {
	var acc uint64
	total := make([]float64, len(ops))
	simMS := make([]float64, len(ops))
	rate := make([]float64, len(ops))
	answer := make([]float64, len(ops))
	for i, o := range ops {
		acc += o.accesses
		total[i] = ms(o.total)
		simMS[i] = ms(o.sim)
		rate[i] = float64(o.accesses) / o.sim.Seconds() / 1e6
		answer[i] = ms(o.answer)
	}
	rep.set("setup_s", medianDur(setups).Seconds(), "s")
	rep.set("maccess_per_s", median(rate), "Maccess/s")
	rep.set("cell_p50_ms", median(simMS), "ms")
	rep.set("jobs_per_s", 1000/median(total), "1/s")
	rep.set("miss_p50_ms", median(total), "ms")
	rep.set("miss_p95_ms", quantile(total, 0.95), "ms")
	rep.set("hit_p50_ms", median(answer), "ms")
	rep.note("cells=%d accesses=%d measured=%.3fs (%.3f cells/s, %.3f Maccess/s overall) setups=%v",
		len(ops), acc, elapsed.Seconds(), float64(len(ops))/elapsed.Seconds(), float64(acc)/elapsed.Seconds()/1e6, setups)
	rep.note("cell ms: %.1f", simMS)
}

func runSCSweep(cfg config, refs refs) (*report, error) {
	benches := draw(cfg.seed, scBenches, scDraw)
	var cells [][]cell
	setups, err := timeSetups(quickSetupReps, nil, func() error {
		var err error
		cells, err = resolveSC(benches)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	ops, elapsed := measureRounds(cfg.measure(), len(cells), len(scPolicies), func(g, i int) libOp {
		c := cells[g][i]
		r := c.res
		t0 := time.Now()
		pol := r.Policy.Make(r.Cores)
		t1 := time.Now()
		res := sim.RunSingle(r.Workloads[0], pol, sim.SingleOptions{Scale: r.Scale, LLC: r.LLCFor(r.Cores)})
		t2 := time.Now()
		err := refs.verify("sc-sweep", c.key, singleStats(res))
		op := libOp{total: time.Since(t0), sim: t2.Sub(t1), accesses: res.L1.Accesses}
		rep.check(err)
		op.answer = timeAnswer(func() { c.answer(refs, "sc-sweep", singleStats(res)) })
		return op
	})
	libMetrics(rep, setups, ops, elapsed)
	rep.note("sc-sweep benches=%v policies=%v", benches, scPolicies)
	return rep, nil
}

// resolveSC resolves a run's cells, grouped by benchmark.
func resolveSC(benches []string) ([][]cell, error) {
	out := make([][]cell, len(benches))
	for g, b := range benches {
		for _, p := range scPolicies {
			c, err := resolveCell(b, "", p, 1, "")
			if err != nil {
				return nil, err
			}
			out[g] = append(out[g], c)
		}
	}
	return out, nil
}

// setupQuad resolves a run's mix cells and fills the workloads.Instructions
// memo for every member. The memo is process-wide, so this set-up is
// timed once: a repetition would measure memo hits.
func setupQuad(mixes []string) ([][]cell, time.Duration, error) {
	out := make([][]cell, len(mixes))
	for g, m := range mixes {
		for _, p := range quadPolicies {
			c, err := resolveCell("", m, p, 1, "")
			if err != nil {
				return nil, 0, err
			}
			out[g] = append(out[g], c)
		}
	}
	t0 := time.Now()
	for _, cs := range out {
		for _, name := range cs[0].res.Mixes[0].Members {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, 0, err
			}
			w.Instructions(cs[0].res.Scale)
		}
	}
	return out, time.Since(t0), nil
}

func runQuadMix(cfg config, refs refs) (*report, error) {
	mixes := draw(cfg.seed, quadMixes, quadDraw)
	var cells [][]cell
	setups, err := timeSetups(1, nil, func() error {
		var err error
		cells, _, err = setupQuad(mixes)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	ops, elapsed := measureRounds(cfg.measure(), len(cells), len(quadPolicies), func(g, i int) libOp {
		c := cells[g][i]
		r := c.res
		t0 := time.Now()
		pol := r.Policy.Make(4)
		t1 := time.Now()
		res, err := sim.RunMulticore(r.Mixes[0], pol, sim.MulticoreOptions{Scale: r.Scale, LLC: r.LLCFor(4)})
		t2 := time.Now()
		if err == nil {
			err = refs.verify("quad-mix", c.key, multiStats(res))
		}
		op := libOp{total: time.Since(t0), sim: t2.Sub(t1), accesses: res.L1.Accesses}
		rep.check(err)
		op.answer = timeAnswer(func() { c.answer(refs, "quad-mix", multiStats(res)) })
		return op
	})
	libMetrics(rep, setups, ops, elapsed)
	rep.note("quad-mix mixes=%v policies=%v", mixes, quadPolicies)
	return rep, nil
}

// zooBench is one benchmark's materialized sampled stream.
type zooBench struct {
	m *sim.Materialized
	// replayed is the records one replay drives: warm-up LLC records
	// plus measured accesses, over every window.
	replayed uint64
}

func zooKey(z zooBench, policy string) string { return z.m.Benchmark + "|" + policy }

// materializeZoo loads the committed plans and materializes each
// benchmark's windows at the plans' scale.
func materializeZoo(root string, benches []string) ([]zooBench, error) {
	data, err := os.ReadFile(filepath.Join(root, sampledPlansPath))
	if err != nil {
		return nil, fmt.Errorf("sampled plans: %w", err)
	}
	var plans struct {
		Scale float64                  `json:"scale"`
		Plans map[string]sampling.Plan `json:"plans"`
	}
	if err := json.Unmarshal(data, &plans); err != nil {
		return nil, fmt.Errorf("sampled plans: %w", err)
	}
	out := make([]zooBench, len(benches))
	for i, b := range benches {
		plan, ok := plans.Plans[b]
		if !ok {
			return nil, fmt.Errorf("sampled plans: no plan for %s", b)
		}
		w, err := workloads.ByName(b)
		if err != nil {
			return nil, err
		}
		m, err := sim.MaterializeSampled(w, &plan, plans.Scale)
		if err != nil {
			return nil, err
		}
		out[i].m = m
		for _, win := range m.Windows {
			out[i].replayed += uint64(len(win.Warm) + len(win.Measure))
		}
	}
	return out, nil
}

func replayZoo(z zooBench, p exp.Policy) (sim.SampledResult, error) {
	return sim.RunSampledTrace(z.m, p.Make(1), sim.SingleOptions{LLC: hier.LLCConfig(1)})
}

func runSampledZoo(cfg config, refs refs) (*report, error) {
	benches := draw(cfg.seed, zooBenches, zooDraw)
	var zoo []zooBench
	var pols []exp.Policy
	setups, err := timeSetups(slowSetupReps, func() {
		zoo = nil
		runtime.GC()
	}, func() error {
		var err error
		if pols, err = resolvePolicies(zooPolicies); err != nil {
			return err
		}
		zoo, err = materializeZoo(cfg.root, benches)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	ops, elapsed := measureRounds(cfg.measure(), len(zoo), len(pols), func(g, i int) libOp {
		z := zoo[g]
		key := zooKey(z, zooPolicies[i])
		t0 := time.Now()
		pol := pols[i].Make(1)
		t1 := time.Now()
		res, err := sim.RunSampledTrace(z.m, pol, sim.SingleOptions{LLC: hier.LLCConfig(1)})
		t2 := time.Now()
		if err == nil {
			err = refs.verify("sampled-zoo", key, sampledStats(res))
		}
		op := libOp{total: time.Since(t0), sim: t2.Sub(t1), accesses: z.replayed}
		rep.check(err)
		op.answer = timeAnswer(func() {
			if _, err := exp.ResolvePolicy(zooPolicies[i]); err == nil {
				refs.verify("sampled-zoo", key, sampledStats(res))
			}
		})
		return op
	})
	libMetrics(rep, setups, ops, elapsed)
	rep.note("sampled-zoo benches=%v policies=%v", benches, zooPolicies)
	return rep, nil
}
