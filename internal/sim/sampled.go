package sim

// Sampled simulation: instead of driving the whole reference stream
// through the hierarchy, a sampled run materializes just the warm-up
// and measure windows a sampling.Plan selected — one generation pass
// that also replays the windows through the policy-independent private
// levels, reusable across policies — then replays each window against
// a policy: functional warming of the LLC first, then a measured
// interval with the timing model, combining the per-window deltas into
// full-run estimates with error bounds (sampling.Estimate). The full
// drive loop in RunSingle is untouched: with sampling off, nothing
// here runs.

import (
	"fmt"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/dbrb"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/probe"
	"sdbp/internal/sampling"
	"sdbp/internal/workloads"
)

// Window is one pick's materialized access stream after the
// policy-independent private levels (L1/L2, architecturally plain LRU)
// have been replayed once during materialization. Per-policy replays
// therefore drive only the LLC and the timing model — the expensive
// part of a window is paid once per workload, not once per policy.
type Window struct {
	// Warm holds the LLC-bound records (gaps rewritten to LLC-stream
	// coordinates, exactly as hier.Core delivers them) of the warm-up
	// range (WarmStart, Start]. Functional warming replays these
	// through the LLC with no timing model. It may cover less than the
	// plan's warm-up when the pick sits near the stream's beginning or
	// close behind the previous pick (warm-ups clip at the previous
	// pick's End so no access ever replays twice), and is empty when
	// Warmup is 0.
	Warm []mem.Access
	// Measure covers the pick's instruction range (Start, End], every
	// access with its private-level resolution precomputed. It can be
	// short or empty when the plan outlives the stream (for example a
	// plan built at a larger scale); the estimator drops empty
	// measurements and renormalizes.
	Measure []MeasuredAccess
}

// MeasuredAccess is one measured-range access with its precomputed
// private-level resolution.
type MeasuredAccess struct {
	mem.Access
	// Level is where the private levels resolved the access: LevelL1
	// and LevelL2 fix the latency outright; LevelMemory means the
	// access reaches the LLC, where the policy under test decides
	// between an LLC hit and a memory access.
	Level hier.Level
	// LLCGap is the rewritten instruction gap of the LLC-bound record
	// (meaningful only when Level is LevelMemory).
	LLCGap uint32
}

// Materialized is one workload's sampled access stream: every window a
// plan needs, captured in a single generation pass so the (dominant)
// generation cost is paid once and the windows replay against any
// number of policies.
type Materialized struct {
	Benchmark string
	Scale     float64
	Plan      *sampling.Plan
	// Windows aligns 1:1 with Plan.Picks.
	Windows []Window
	// TotalInstructions and TotalAccesses are the full stream's counts
	// (the extrapolation target for estimates).
	TotalInstructions uint64
	TotalAccesses     uint64
	// SimInstructions is the instructions a replay of these windows
	// covers (warm-up plus measured; warm gaps are in LLC-stream
	// coordinates, so both sums count raw retired instructions).
	SimInstructions uint64
	// GenDuration is the wall time of the materialization pass.
	GenDuration time.Duration
}

// materializeBuffers is how many generated chunks MaterializeSampled's
// producer may run ahead of its consumer: 512K accesses, about one
// window at the validation configuration (two warm-up intervals and a
// measured one). Inside a window the consumer filters and captures
// every access and falls behind generation; between windows it only
// counts instructions and catches up. Buffering a window's worth lets
// generation run on through a window instead of waiting at its start.
// Shorter streams get no more buffers than they fill.
const materializeBuffers = 128

// MaterializeSampled generates the workload's reference stream once,
// replays the windows' accesses through the policy-independent private
// levels (a fresh L1/L2 stack, exactly what a per-policy replay used
// to pay), and captures each window in LLC-replay form. scale must
// match the scale the plan's pilot ran at — window boundaries are
// instruction counts into that exact stream.
func MaterializeSampled(w workloads.Workload, plan *sampling.Plan, scale float64) (*Materialized, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if scale == 0 {
		scale = 1
	}
	start := time.Now()

	m := &Materialized{
		Benchmark: w.Name,
		Scale:     scale,
		Plan:      plan,
		Windows:   make([]Window, len(plan.Picks)),
	}
	// Window instruction ranges: warm covers (warmLo, Start], measure
	// (Start, End]. A warm range is clipped at the previous pick's End:
	// the replay drives all windows through one LLC in stream order, so
	// anything before that boundary was already played (as the previous
	// window's warm-up or measurement) and replaying it again would
	// corrupt recency state and double-train predictors. Clipping keeps
	// the replayed stream strictly monotone — the ranges partition a
	// subsequence of the stream.
	warmLo := make([]uint64, len(plan.Picks))
	for i, pk := range plan.Picks {
		warmLo[i] = 0
		if pk.Start > plan.Warmup {
			warmLo[i] = pk.Start - plan.Warmup
		}
		if i > 0 && warmLo[i] < plan.Picks[i-1].End {
			warmLo[i] = plan.Picks[i-1].End
		}
	}

	// The private-level filter sees exactly the accesses inside windows,
	// in stream order, once each — the same stream the per-policy hier
	// stack processed before filtering moved here. Generation, the
	// dominant cost, runs on a producer goroutine; this goroutine picks
	// out each chunk's in-window runs, filters them (FilterBlock writes
	// the gap-rewritten LLC-bound records) and captures them.
	filter := hier.NewCore(hier.DefaultConfig(), nil)
	recs := make([]hier.Filtered, chunkSize)
	gen := w.Generator(scale)
	buffers := min(materializeBuffers, 2+w.Accesses(scale)/chunkSize)
	p := startProducer(buffers, func(buf []mem.Access) (int, error) { return gen.NextBatch(buf), nil })
	defer p.halt()
	var cum uint64 // instructions retired before the current access
	lo := 0        // first window whose End is still ahead of cum
	// The fill never fails, so next's error is always nil.
	for chunk, _ := p.next(); chunk != nil; chunk, _ = p.next() {
		m.TotalAccesses += uint64(len(chunk))
		for i := 0; i < len(chunk); {
			after := cum + uint64(chunk[i].Gap) + 1
			for lo < len(plan.Picks) && plan.Picks[lo].End < after {
				lo++
			}
			if lo == len(plan.Picks) || after <= warmLo[lo] {
				cum = after
				i++
				continue
			}
			// chunk[i] opens a run inside window lo (the windows are
			// disjoint); the run ends at the pick's End or the chunk's.
			pk := plan.Picks[lo]
			j := i
			for c := cum; j < len(chunk); j++ {
				if c += uint64(chunk[j].Gap) + 1; c > pk.End {
					break
				}
			}
			filter.FilterBlock(chunk[i:j], recs[:j-i])
			win := &m.Windows[lo]
			for k := range recs[:j-i] {
				f, a := &recs[k], &chunk[i+k]
				cum += uint64(a.Gap) + 1
				bound := f.Flags&hier.FLLCBound != 0
				if cum <= pk.Start {
					if bound {
						win.Warm = append(win.Warm, f.LLC)
						m.SimInstructions += uint64(f.LLC.Gap) + 1
					}
					continue
				}
				ma := MeasuredAccess{Access: *a, Level: f.PrivateLevel()}
				if bound {
					ma.LLCGap = f.LLC.Gap
				}
				win.Measure = append(win.Measure, ma)
				m.SimInstructions += uint64(a.Gap) + 1
			}
			i = j
		}
		p.free <- chunk
	}
	m.TotalInstructions = cum
	m.GenDuration = time.Since(start)
	return m, nil
}

// SampledResult reports one policy's sampled run.
type SampledResult struct {
	Benchmark string
	Policy    string
	// Estimate is the extrapolated full-run statistics with error
	// bounds.
	Estimate sampling.Estimate
	// Measured aligns 1:1 with the plan's picks: each entry is the
	// measured window's telemetry deltas in pilot coordinates
	// (Instructions = the pick's End).
	Measured []probe.Interval
	// Series is the sampled run's telemetry in the standard probe
	// form, so the JSONL/trace-event exporters and cmd/report work on
	// sampled runs unchanged.
	Series *probe.Series
	// Duration is the replay's wall time (excluding materialization,
	// which is shared across policies).
	Duration time.Duration
}

// llcSnapshot is the LLC leg's half of a window-edge snapshot: the
// counters a measured window's LLC deltas are taken over, the same
// state intervalSampler reads during full runs.
type llcSnapshot struct {
	stats cache.Stats
	acc   dbrb.Accuracy
}

func snapLLC(llc *cache.Cache, acc accuracyProvider) llcSnapshot {
	s := llcSnapshot{stats: llc.Stats()}
	if acc != nil {
		s.acc = acc.Accuracy()
	}
	return s
}

// timingAt is the timing leg's half of a window-edge snapshot.
func timingAt(timing *cpu.Core) (instr, cycles uint64) {
	// Before the first instruction the timing model already reports the
	// pipeline-fill cycles. The pilot's interval sampler charges those
	// to interval 0 (its initial delta base is zero), so a measurement
	// starting at instruction 0 must too.
	if instr = timing.Instructions(); instr > 0 {
		cycles = uint64(timing.Cycles())
	}
	return instr, cycles
}

// llcLeg returns the sampled replay's LLC leg as a producer fill. Per
// window it runs functional warming over Warm, then the measured
// range's LLC-bound records with their gaps rewritten to LLCGap,
// writing one hit bit per record into the chunk. It snapshots the LLC
// at the measured range's edges into snaps[i]; a window's closing
// snapshot can land after the chunk holding its last hit bit was sent,
// so snaps is the consumer's only once the stream has ended.
func llcLeg(wins []Window, llc *cache.Cache, acc accuracyProvider, snaps [][2]llcSnapshot) func(hits []bool) (int, error) {
	i, j := 0, -1 // window, and next measured record (-1: not yet warmed)
	return func(hits []bool) (int, error) {
		n := 0
		for ; i < len(wins); i++ {
			win := &wins[i]
			if j < 0 {
				for _, a := range win.Warm {
					llc.Access(a)
				}
				snaps[i][0] = snapLLC(llc, acc)
				j = 0
			}
			for ; j < len(win.Measure); j++ {
				ma := &win.Measure[j]
				if ma.Level != hier.LevelMemory {
					continue
				}
				if n == len(hits) {
					return n, nil
				}
				a := ma.Access
				a.Gap = ma.LLCGap
				hits[n] = llc.Access(a).Hit
				n++
			}
			snaps[i][1] = snapLLC(llc, acc)
			j = -1
		}
		return n, nil
	}
}

// RunSampledTrace replays materialized windows against one policy:
// functional warming (LLC state only, no timing), then the measured
// interval, per window, through a fresh LLC and timing model. The
// private levels were already replayed during materialization — their
// resolutions are baked into the windows — so the per-policy cost is
// the LLC-bound stream plus the measured ranges' timing. The policy
// must be freshly constructed (cache.New resets it), exactly as in
// RunSingle.
//
// The two legs overlap: the LLC leg (llcLeg) runs on a producer
// goroutine and hands over the measured hit bits a chunk at a time,
// and the timing leg runs cpu.Record over each window's Measure on the
// caller's goroutine. That is byte-identical to replaying a window's
// LLC accesses and then its timing, because LLC state never reads the
// timing model and each leg snapshots its own counters at window
// edges. A panic in the policy reaches the caller as a panic (see
// producer.next), and no goroutine outlives the call.
func RunSampledTrace(m *Materialized, pol cache.Policy, opts SingleOptions) (SampledResult, error) {
	opts.normalize()
	if opts.CaptureStream || opts.KeepLineEfficiencies {
		return SampledResult{}, fmt.Errorf("sim: stream capture and line efficiencies are full-run features; disable them for sampled runs")
	}
	if opts.Probe != nil && opts.Probe.Enabled() {
		return SampledResult{}, fmt.Errorf("sim: interval telemetry granularity is fixed by the sampling plan; drop the probe config for sampled runs")
	}
	start := time.Now()

	// Sampled results report no efficiency, so the LLC keeps no per-line
	// clocks.
	llcCfg := opts.LLC
	llcCfg.SkipEfficiency = true
	llc := cache.New(llcCfg, pol)
	timing := cpu.New(cpu.DefaultConfig())
	acc, _ := accuracyOf(pol)

	res := SampledResult{
		Benchmark: m.Benchmark,
		Policy:    pol.Name(),
		Measured:  make([]probe.Interval, len(m.Windows)),
	}
	snaps := make([][2]llcSnapshot, len(m.Windows))
	p := startProducer(pipeBuffers, llcLeg(m.Windows, llc, acc, snaps))
	defer p.halt()
	var hits []bool
	h := 0
	for i := range m.Windows {
		win := &m.Windows[i]
		instr0, cycles0 := timingAt(timing)
		for j := range win.Measure {
			ma := &win.Measure[j]
			level := ma.Level
			if level == hier.LevelMemory {
				if h == len(hits) {
					if hits != nil {
						p.free <- hits
					}
					if hits, _ = p.next(); hits == nil { // the fill never fails
						panic("sim: sampled replay's LLC leg ended before its last measured record")
					}
					h = 0
				}
				if hits[h] {
					level = hier.LevelLLC
				}
				h++
			}
			timing.Record(ma.Gap, level.Latency(), ma.DependentLoad)
		}
		instr1, cycles1 := timingAt(timing)
		res.Measured[i] = probe.Interval{
			Index:         i,
			Instructions:  m.Plan.Picks[i].End,
			DInstructions: instr1 - instr0,
			DCycles:       cycles1 - cycles0,
		}
	}
	if hits != nil {
		p.free <- hits
	}
	// The LLC leg's snapshots and final state are the caller's once the
	// stream has ended.
	if extra, _ := p.next(); extra != nil {
		panic("sim: sampled replay's LLC leg ran past the last measured record")
	}
	for i := range res.Measured {
		iv, before, after := &res.Measured[i], &snaps[i][0], &snaps[i][1]
		iv.DAccesses = after.stats.Accesses - before.stats.Accesses
		iv.DHits = after.stats.Hits - before.stats.Hits
		iv.DMisses = after.stats.Misses - before.stats.Misses
		iv.DBypasses = after.stats.Bypasses - before.stats.Bypasses
		iv.DEvictions = after.stats.Evictions - before.stats.Evictions
		iv.DPredictions = after.acc.Predictions - before.acc.Predictions
		iv.DPositives = after.acc.Positives - before.acc.Positives
		iv.DFalsePositives = after.acc.FalsePositives - before.acc.FalsePositives
		iv.ComputeRates()
	}

	est, err := m.Plan.Estimate(res.Measured, m.TotalInstructions, m.SimInstructions)
	if err != nil {
		return SampledResult{}, fmt.Errorf("sim: %s/%s: %w", m.Benchmark, res.Policy, err)
	}
	res.Estimate = est
	res.Series = &probe.Series{
		Run: probe.Run{
			Benchmark:    m.Benchmark,
			Policy:       res.Policy,
			Interval:     m.Plan.Interval,
			Instructions: m.SimInstructions,
			Cycles:       uint64(timing.Cycles()),
			IPC:          timing.IPC(),
			Accesses:     llc.Stats().Accesses,
			Misses:       llc.Stats().Misses,
			Evictions:    llc.Stats().Evictions,
		},
		Intervals: res.Measured,
	}
	if acc != nil {
		a := acc.Accuracy()
		res.Series.Run.Predictions = a.Predictions
		res.Series.Run.Positives = a.Positives
		res.Series.Run.FalsePositives = a.FalsePositives
	}
	res.Duration = time.Since(start)
	return res, nil
}

// SelectPlan runs the pilot for one workload — a full probed run under
// the pilot policy — and clusters its interval telemetry into a
// sampling plan. The pilot policy only shapes the dead-prediction
// feature dimensions; the plan replays against any policy. The pilot's
// own full-run IPC and miss rate are recorded on the plan as the
// calibration truth for pilot-calibrated error bounds.
func SelectPlan(w workloads.Workload, pilot cache.Policy, opts SingleOptions, interval uint64, cfg sampling.Config) (sampling.Plan, error) {
	if interval == 0 {
		return sampling.Plan{}, fmt.Errorf("sim: sampling needs a positive telemetry interval")
	}
	opts.Probe = &probe.Config{Interval: interval}
	res := RunSingle(w, pilot, opts)
	if res.Probe == nil || len(res.Probe.Intervals) == 0 {
		return sampling.Plan{}, fmt.Errorf("sim: pilot run of %s produced no interval telemetry", w.Name)
	}
	plan, err := sampling.Select(res.Probe.Intervals, interval, cfg)
	if err != nil {
		return sampling.Plan{}, err
	}
	plan.PilotIPC = res.IPC
	if res.LLC.Accesses > 0 {
		plan.PilotMissRate = float64(res.LLC.Misses) / float64(res.LLC.Accesses)
	}
	return plan, nil
}
