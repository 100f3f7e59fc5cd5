package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/dbrb"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/probe"
	"sdbp/internal/sampling"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// refSnapshot is what the sequential reference reads at a window edge:
// every counter at once, from one goroutine.
type refSnapshot struct {
	instr, cycles uint64
	stats         cache.Stats
	acc           dbrb.Accuracy
}

func refSnap(llc *cache.Cache, timing *cpu.Core, acc interface{ Accuracy() dbrb.Accuracy }) refSnapshot {
	s := refSnapshot{instr: timing.Instructions(), cycles: uint64(timing.Cycles()), stats: llc.Stats()}
	// The pilot charges the pipeline-fill cycles to interval 0.
	if s.instr == 0 {
		s.cycles = 0
	}
	if acc != nil {
		s.acc = acc.Accuracy()
	}
	return s
}

// refSampled is the sequential reference for sim.RunSampledTrace: one
// goroutine replays each window in turn — cache.Access over Warm, then
// over the measured LLC-bound records, then cpu.Record over Measure
// with those outcomes — and snapshots every counter at the window's
// edges. It shares no chunking, goroutine or snapshot code with the
// pipelined replay.
func refSampled(m *sim.Materialized, pol cache.Policy, llcCfg cache.Config) (sim.SampledResult, error) {
	llcCfg.SkipEfficiency = true
	llc := cache.New(llcCfg, pol)
	timing := cpu.New(cpu.DefaultConfig())
	acc, _ := pol.(interface{ Accuracy() dbrb.Accuracy })
	res := sim.SampledResult{Benchmark: m.Benchmark, Policy: pol.Name()}
	for i := range m.Windows {
		win := &m.Windows[i]
		for _, a := range win.Warm {
			llc.Access(a)
		}
		before := refSnap(llc, timing, acc)
		var hits []bool
		for _, ma := range win.Measure {
			if ma.Level == hier.LevelMemory {
				a := ma.Access
				a.Gap = ma.LLCGap
				hits = append(hits, llc.Access(a).Hit)
			}
		}
		for _, ma := range win.Measure {
			level := ma.Level
			if level == hier.LevelMemory {
				if hits[0] {
					level = hier.LevelLLC
				}
				hits = hits[1:]
			}
			timing.Record(ma.Gap, level.Latency(), ma.DependentLoad)
		}
		after := refSnap(llc, timing, acc)
		iv := probe.Interval{
			Index:           i,
			Instructions:    m.Plan.Picks[i].End,
			DInstructions:   after.instr - before.instr,
			DCycles:         after.cycles - before.cycles,
			DAccesses:       after.stats.Accesses - before.stats.Accesses,
			DHits:           after.stats.Hits - before.stats.Hits,
			DMisses:         after.stats.Misses - before.stats.Misses,
			DBypasses:       after.stats.Bypasses - before.stats.Bypasses,
			DEvictions:      after.stats.Evictions - before.stats.Evictions,
			DPredictions:    after.acc.Predictions - before.acc.Predictions,
			DPositives:      after.acc.Positives - before.acc.Positives,
			DFalsePositives: after.acc.FalsePositives - before.acc.FalsePositives,
		}
		iv.ComputeRates()
		res.Measured = append(res.Measured, iv)
	}
	est, err := m.Plan.Estimate(res.Measured, m.TotalInstructions, m.SimInstructions)
	if err != nil {
		return res, err
	}
	res.Estimate = est
	st := llc.Stats()
	res.Series = &probe.Series{
		Run: probe.Run{
			Benchmark:    m.Benchmark,
			Policy:       res.Policy,
			Interval:     m.Plan.Interval,
			Instructions: m.SimInstructions,
			Cycles:       uint64(timing.Cycles()),
			IPC:          timing.IPC(),
			Accesses:     st.Accesses,
			Misses:       st.Misses,
			Evictions:    st.Evictions,
		},
		Intervals: res.Measured,
	}
	if acc != nil {
		a := acc.Accuracy()
		res.Series.Run.Predictions = a.Predictions
		res.Series.Run.Positives = a.Positives
		res.Series.Run.FalsePositives = a.FalsePositives
	}
	return res, nil
}

// sameBits reports whether got and want hold the same values field for
// field, comparing floats by their bits (so NaN matches NaN and 0 does
// not match -0).
func sameBits(got, want reflect.Value) bool {
	switch got.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(got.Float()) == math.Float64bits(want.Float())
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if !sameBits(got.Field(i), want.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() {
			return false
		}
		for i := 0; i < got.Len(); i++ {
			if !sameBits(got.Index(i), want.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if got.IsNil() || want.IsNil() {
			return got.IsNil() == want.IsNil()
		}
		return sameBits(got.Elem(), want.Elem())
	default:
		return reflect.DeepEqual(got.Interface(), want.Interface())
	}
}

// checkSampledAgainstRef replays m under a fresh instance of each policy
// with one and two Ps and checks RunSampledTrace against refSampled in
// Measured, Estimate and Series.Run.
func checkSampledAgainstRef(t *testing.T, m *sim.Materialized, llcCfg cache.Config) {
	t.Helper()
	for _, polName := range []string{"LRU", "Sampler"} {
		pol, err := exp.ResolvePolicy(polName)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSampled(m, pol.Make(1), llcCfg)
		if err != nil {
			t.Fatalf("%s: reference replay: %v", polName, err)
		}
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := sim.RunSampledTrace(m, pol.Make(1), sim.SingleOptions{LLC: llcCfg})
			runtime.GOMAXPROCS(prev)
			where := fmt.Sprintf("%s procs=%d", polName, procs)
			if err != nil {
				t.Fatalf("%s: RunSampledTrace: %v", where, err)
			}
			for i := range want.Measured {
				if i < len(got.Measured) && !sameBits(reflect.ValueOf(got.Measured[i]), reflect.ValueOf(want.Measured[i])) {
					t.Errorf("%s: window %d measured %+v, reference %+v", where, i, got.Measured[i], want.Measured[i])
				}
			}
			if len(got.Measured) != len(want.Measured) {
				t.Errorf("%s: %d measured windows, reference %d", where, len(got.Measured), len(want.Measured))
			}
			if !sameBits(reflect.ValueOf(got.Estimate), reflect.ValueOf(want.Estimate)) {
				t.Errorf("%s: estimate %+v, reference %+v", where, got.Estimate, want.Estimate)
			}
			if !sameBits(reflect.ValueOf(got.Series.Run), reflect.ValueOf(want.Series.Run)) {
				t.Errorf("%s: series run %+v, reference %+v", where, got.Series.Run, want.Series.Run)
			}
		}
	}
}

// edgeWindows builds a hand-made materialization whose windows put the
// replay's chunk edges where a pipelined replay can go wrong: a window
// with no warm-up, one with no measured range, one whose measured
// range reaches no LLC-bound record, and measured ranges holding
// chunk-1, chunk, chunk+1 and 3·chunk+17 LLC-bound records, so one
// window ends exactly on a chunk edge and others straddle one or
// several. Records mix private hits with LLC-bound accesses over a
// footprint twice the LLC's capacity, so the LLC both hits and misses
// around every edge.
func edgeWindows(llcCfg cache.Config) *sim.Materialized {
	c := sim.ChunkSize
	// A measured range holds bound LLC-bound records mixed with private
	// ones, then tail private records.
	type shape struct{ warm, bound, tail int }
	shapes := []shape{{0, c - 1, 0}, {500, 0, 0}, {300, 0, 5}, {700, c, 0}, {200, c + 1, 3}, {0, 3*c + 17, 1}}
	blocks := 2 * llcCfg.SizeBytes / 64
	r := mem.NewRand(7)
	access := func() mem.Access {
		return mem.Access{
			PC:            uint64(0x400000 + 4*r.Intn(64)),
			Addr:          uint64(64 * r.Intn(blocks)),
			Gap:           uint32(r.Intn(8)),
			Write:         r.Intn(4) == 0,
			DependentLoad: r.Intn(8) == 0,
		}
	}
	private := func() sim.MeasuredAccess {
		ma := sim.MeasuredAccess{Access: access(), Level: hier.LevelL1}
		if r.Intn(2) == 0 {
			ma.Level = hier.LevelL2
		}
		return ma
	}
	m := &sim.Materialized{Benchmark: "edges", Scale: 1, Plan: &sampling.Plan{Interval: 1000}}
	var cum uint64
	add := func(win *sim.Window, ma sim.MeasuredAccess) {
		win.Measure = append(win.Measure, ma)
		cum += uint64(ma.Gap) + 1
		m.SimInstructions += uint64(ma.Gap) + 1
	}
	for _, sh := range shapes {
		var win sim.Window
		for k := 0; k < sh.warm; k++ {
			a := access()
			win.Warm = append(win.Warm, a)
			cum += uint64(a.Gap) + 1
			m.SimInstructions += uint64(a.Gap) + 1
		}
		start := cum
		for bound := 0; bound < sh.bound; {
			if r.Intn(3) == 0 {
				add(&win, private())
				continue
			}
			ma := sim.MeasuredAccess{Access: access(), Level: hier.LevelMemory}
			ma.LLCGap = ma.Gap + uint32(r.Intn(30))
			add(&win, ma)
			bound++
		}
		for k := 0; k < sh.tail; k++ {
			add(&win, private())
		}
		m.Windows = append(m.Windows, win)
		m.Plan.Picks = append(m.Plan.Picks, sampling.Pick{
			Index: len(m.Plan.Picks), Start: start, End: cum,
			Weight: 1 / float64(len(shapes)), SDCPI: 0.1, SDMPKI: 1, SDAPKI: 2,
		})
	}
	m.TotalInstructions, m.TotalAccesses = 4*cum, uint64(4*len(shapes)*c)
	return m
}

// TestRunSampledTraceMatchesSequentialReference checks the pipelined
// replay field for field against refSampled, on windows placed on and
// around chunk edges and on two real materializations of hmmer: a
// one-pick plan and an every-interval plan with no warm-up.
func TestRunSampledTraceMatchesSequentialReference(t *testing.T) {
	t.Run("edges", func(t *testing.T) {
		m := edgeWindows(refLLC)
		// The edges only test something if the hit bits vary around them.
		lru, err := refSampled(m, mustPolicy(t, "LRU"), refLLC)
		if err != nil {
			t.Fatal(err)
		}
		if r := lru.Series.Run; r.Misses < r.Accesses/5 || r.Misses > r.Accesses*4/5 {
			t.Fatalf("LRU missed %d of %d LLC accesses; want both hits and misses in plenty", r.Misses, r.Accesses)
		}
		checkSampledAgainstRef(t, m, refLLC)
	})

	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	const scale, interval = 0.02, 5_000
	pilot := sim.RunSingle(w, mustPolicy(t, "LRU"), sim.SingleOptions{
		Scale: scale, Probe: &probe.Config{Interval: interval},
	})
	all, err := sampling.AllIntervals(pilot.Probe.Intervals, interval)
	if err != nil {
		t.Fatal(err)
	}
	one, err := sampling.Select(pilot.Probe.Intervals, interval, sampling.Config{Clusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Picks) != 1 {
		t.Fatalf("one-cluster plan has %d picks", len(one.Picks))
	}
	for name, plan := range map[string]*sampling.Plan{"one-pick": &one, "all-intervals": &all} {
		t.Run(name, func(t *testing.T) {
			m, err := sim.MaterializeSampled(w, plan, scale)
			if err != nil {
				t.Fatal(err)
			}
			checkSampledAgainstRef(t, m, hier.LLCConfig(1))
		})
	}
}

func mustPolicy(t *testing.T, name string) cache.Policy {
	t.Helper()
	pol, err := exp.ResolvePolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return pol.Make(1)
}
