package sim

// Interval telemetry for single-core runs: when SingleOptions.Probe
// asks for it, the drive loop snapshots deltas of the LLC's
// cache.Stats, the timing model's cycles and the policy's
// dbrb.Accuracy every Probe.Interval retired instructions, producing
// the deterministic probe.Series the exporters and cmd/report consume.
// With Probe nil (the default) none of this exists: the loop pays a nil
// check per chunk and the simulated results are byte-identical to a
// probe-free build (pinned by the committed goldens).

import (
	"reflect"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/dbrb"
	"sdbp/internal/hier"
	"sdbp/internal/predictor"
	"sdbp/internal/probe"
)

// accuracyProvider is the fillAccuracy-style extraction interface the
// dead-block policies (and wrappers like the dueling variant) satisfy.
type accuracyProvider interface {
	Accuracy() dbrb.Accuracy
	Predictor() predictor.Predictor
}

// accuracyOf nil-safely extracts the accuracy provider from a policy.
// Non-DBRB baselines (LRU, DIP, RRIP, ...) simply don't implement the
// interface; a typed-nil policy pointer smuggled inside a non-nil
// interface is also rejected, so interval and end-of-run accuracy
// observation never panics on a policy without real accuracy state.
func accuracyOf(pol cache.Policy) (accuracyProvider, bool) {
	d, ok := pol.(accuracyProvider)
	if !ok || d == nil {
		return nil, false
	}
	if v := reflect.ValueOf(d); v.Kind() == reflect.Pointer && v.IsNil() {
		return nil, false
	}
	return d, true
}

// attributionProvider is implemented by policies with a per-PC
// death-attribution table (package dbrb).
type attributionProvider interface {
	EnableAttribution()
	Attribution() *dbrb.Attribution
}

// enableAttribution opts the policy into per-PC attribution when it
// supports it, before the cache's Reset sizes the table. Returns the
// provider for end-of-run export, or nil for non-DBRB policies.
func enableAttribution(pol cache.Policy) attributionProvider {
	ap, ok := pol.(attributionProvider)
	if !ok || ap == nil {
		return nil
	}
	if v := reflect.ValueOf(ap); v.Kind() == reflect.Pointer && v.IsNil() {
		return nil
	}
	ap.EnableAttribution()
	return ap
}

// intervalSampler accumulates the interval time series during the
// drive loop. All reads are of state the simulation already keeps
// (cache.Stats, the timing model's counters, the policy's accuracy
// tallies), so sampling perturbs nothing it measures.
type intervalSampler struct {
	every  uint64
	next   uint64
	llc    *cache.Cache
	timing *cpu.Core
	acc    accuracyProvider // nil for non-DBRB policies

	prevInstr  uint64
	prevCycles uint64
	prevStats  cache.Stats
	prevAcc    dbrb.Accuracy

	intervals []probe.Interval
}

// newIntervalSampler returns a sampler, or nil when cfg asks for no
// interval telemetry — the drive loop's nil check then disables
// sampling entirely.
func newIntervalSampler(cfg *probe.Config, llc *cache.Cache, timing *cpu.Core, pol cache.Policy) *intervalSampler {
	if cfg == nil || !cfg.Enabled() {
		return nil
	}
	s := &intervalSampler{every: cfg.Interval, next: cfg.Interval, llc: llc, timing: timing}
	s.acc, _ = accuracyOf(pol)
	return s
}

// maybeSample emits an interval when the retired-instruction count has
// crossed the next boundary. A single access can retire many
// instructions (its gap), so one interval may cover more than one
// boundary; the next boundary then re-anchors past the current count,
// which keeps interval emission a pure function of the access stream.
func (s *intervalSampler) maybeSample() {
	instr := s.timing.Instructions()
	if instr < s.next {
		return
	}
	s.sample(instr)
	s.next += s.every
	if s.next <= instr {
		s.next = instr + s.every
	}
}

// cut returns how many of fb's records the drive loop times before its
// next maybeSample call: through the first record whose cumulative
// instruction count reaches the next boundary, or all of fb when none
// does. Boundaries are a pure function of cumulative instructions, so
// sampling at these cuts emits exactly the intervals a per-access loop
// would.
func (s *intervalSampler) cut(fb []hier.Filtered) int {
	instr := s.timing.Instructions()
	for i := range fb {
		instr += uint64(fb[i].Gap) + 1
		if instr >= s.next {
			return i + 1
		}
	}
	return len(fb)
}

// finish emits the trailing partial interval, if the run retired any
// instructions past the last boundary.
func (s *intervalSampler) finish() {
	if instr := s.timing.Instructions(); instr > s.prevInstr {
		s.sample(instr)
	}
}

func (s *intervalSampler) sample(instr uint64) {
	st := s.llc.Stats()
	cycles := uint64(s.timing.Cycles())
	var acc dbrb.Accuracy
	if s.acc != nil {
		acc = s.acc.Accuracy()
	}
	iv := probe.Interval{
		Index:           len(s.intervals),
		Instructions:    instr,
		DInstructions:   instr - s.prevInstr,
		DCycles:         cycles - s.prevCycles,
		DAccesses:       st.Accesses - s.prevStats.Accesses,
		DHits:           st.Hits - s.prevStats.Hits,
		DMisses:         st.Misses - s.prevStats.Misses,
		DBypasses:       st.Bypasses - s.prevStats.Bypasses,
		DEvictions:      st.Evictions - s.prevStats.Evictions,
		DPredictions:    acc.Predictions - s.prevAcc.Predictions,
		DPositives:      acc.Positives - s.prevAcc.Positives,
		DFalsePositives: acc.FalsePositives - s.prevAcc.FalsePositives,
	}
	iv.ComputeRates()
	s.intervals = append(s.intervals, iv)
	s.prevInstr, s.prevCycles, s.prevStats, s.prevAcc = instr, cycles, st, acc
}

// buildSeries assembles the run's complete telemetry from the finished
// result: header aggregates, the interval time series, and the per-PC
// table bounded to cfg.TopK rows plus a rollup so sums still reconcile.
func buildSeries(res *SingleResult, cfg *probe.Config, ivs []probe.Interval, ap attributionProvider) *probe.Series {
	s := &probe.Series{
		Run: probe.Run{
			Benchmark:    res.Benchmark,
			Policy:       res.Policy,
			Interval:     cfg.Interval,
			Instructions: res.Instructions,
			Cycles:       res.Cycles,
			IPC:          res.IPC,
			Accesses:     res.LLC.Accesses,
			Misses:       res.LLC.Misses,
			Evictions:    res.LLC.Evictions,
		},
		Intervals: ivs,
	}
	if res.Accuracy != nil {
		s.Run.Predictions = res.Accuracy.Predictions
		s.Run.Positives = res.Accuracy.Positives
		s.Run.FalsePositives = res.Accuracy.FalsePositives
	}
	if ap != nil {
		if at := ap.Attribution(); at != nil {
			rows, rollup, rolled := at.TopK(cfg.TopKOrDefault())
			for _, r := range rows {
				s.PCs = append(s.PCs, probe.PCRow{
					PC:             probe.PCHex(r.PC),
					Predictions:    r.Predictions,
					Positives:      r.Positives,
					FalsePositives: r.FalsePositives,
					Evictions:      r.Evictions,
				})
			}
			if rolled {
				s.PCs = append(s.PCs, probe.PCRow{
					PC:             "(other)",
					Other:          true,
					Predictions:    rollup.Predictions,
					Positives:      rollup.Positives,
					FalsePositives: rollup.FalsePositives,
					Evictions:      rollup.Evictions,
				})
			}
		}
	}
	return s
}
