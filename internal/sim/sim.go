// Package sim drives the experiments: it runs a workload's reference
// stream through the cache hierarchy and CPU timing model against a
// chosen LLC management policy, and reports the metrics the paper's
// tables and figures are built from (MPKI, IPC, predictor accuracy,
// cache efficiency, the captured LLC stream for MIN).
package sim

import (
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/dbrb"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/predictor"
	"sdbp/internal/probe"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// chunkSize is how many accesses cross a goroutine boundary at once, at
// every producer in the package: RunSingle's, each of RunMulticore's
// per-core prefilters, and MaterializeSampled's. Each handoff can cost a goroutine park and a
// futex wake-up, so a chunk must be long enough for filtering it to
// dwarf that; 256-access chunks were not (see EXPERIMENTS.md).
const chunkSize = 4096

// pipeBuffers is the number of chunk buffers circulating per drive-loop
// producer: one being filled, one being consumed, and two in flight.
const pipeBuffers = 4

// SingleResult reports one single-core run.
type SingleResult struct {
	// Benchmark is the workload name.
	Benchmark string
	// Policy is the LLC policy name.
	Policy string
	// Instructions is the total instruction count (gaps + memory ops).
	Instructions uint64
	// Cycles is the timing model's cycle count, truncated to an
	// integer so aggregate counters built from it are exact and
	// schedule-independent.
	Cycles uint64
	// IPC is instructions per cycle under the core timing model.
	IPC float64
	// LLC is the last-level cache's statistics.
	LLC cache.Stats
	// L1 and L2 are the private levels' statistics, so campaign
	// counters can reconcile total work across the whole hierarchy.
	L1, L2 cache.Stats
	// Duration is the run's wall time (not serialized into goldens;
	// feeds throughput gauges only).
	Duration time.Duration
	// MPKI is LLC misses per thousand instructions.
	MPKI float64
	// Efficiency is the LLC's live-time ratio (Figure 1's metric).
	Efficiency float64
	// LineEfficiencies is the per-line efficiency map when requested.
	LineEfficiencies [][]float64
	// Accuracy is predictor accuracy when the policy is DBRB.
	Accuracy *dbrb.Accuracy
	// UpdateFraction is the fraction of LLC accesses that updated the
	// predictor, for sampling predictors.
	UpdateFraction float64
	// Stream is the captured LLC access stream when requested.
	Stream []mem.Access
	// Probe is the run's interval telemetry and per-PC attribution
	// table; nil unless SingleOptions.Probe asked for it.
	Probe *probe.Series
}

// SingleOptions tunes a single-core run.
type SingleOptions struct {
	// Scale multiplies the workload's default stream length; 0 means 1.
	Scale float64
	// LLC overrides the LLC geometry; the zero value selects the
	// paper's 2MB 16-way.
	LLC cache.Config
	// CaptureStream records the LLC access stream into the result (for
	// MIN).
	CaptureStream bool
	// KeepLineEfficiencies records the per-line efficiency map (for
	// Figure 1).
	KeepLineEfficiencies bool
	// Probe enables microarchitectural introspection: interval
	// telemetry every Probe.Interval retired instructions plus the
	// per-PC death-attribution table (see package probe). Nil keeps the
	// run byte-identical to an unprobed one.
	Probe *probe.Config
}

func (o *SingleOptions) normalize() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.LLC.SizeBytes == 0 {
		o.LLC = hier.LLCConfig(1)
	}
}

// RunSingle simulates one benchmark on one core with the given LLC
// policy and returns the run's metrics.
func RunSingle(w workloads.Workload, pol cache.Policy, opts SingleOptions) SingleResult {
	opts.normalize()
	start := time.Now()

	var ap attributionProvider
	if opts.Probe != nil && opts.Probe.Enabled() {
		// Opt the policy into per-PC attribution before cache.New runs
		// its Reset, which sizes the table.
		ap = enableAttribution(pol)
	}
	llc := cache.New(opts.LLC, pol)
	core := hier.NewCore(hier.DefaultConfig(), llc)
	timing := cpu.New(cpu.DefaultConfig())
	ps := newIntervalSampler(opts.Probe, llc, timing, pol)

	res := SingleResult{Benchmark: w.Name, Policy: pol.Name()}
	res.Stream = drive(w.Generator(opts.Scale), core, llc, timing, ps, opts.CaptureStream)
	llc.Finish()

	res.Instructions = timing.Instructions()
	res.Cycles = uint64(timing.Cycles())
	res.IPC = timing.IPC()
	levels := core.Stats()
	res.LLC = levels.LLC
	res.L1 = levels.L1
	res.L2 = levels.L2
	if res.Instructions > 0 {
		res.MPKI = float64(res.LLC.Misses) / (float64(res.Instructions) / 1000)
	}
	res.Efficiency = llc.Efficiency()
	if opts.KeepLineEfficiencies {
		res.LineEfficiencies = llc.LineEfficiencies()
	}
	fillAccuracy(&res, pol)
	if ps != nil {
		ps.finish()
		res.Probe = buildSeries(&res, opts.Probe, ps.intervals, ap)
	}
	res.Duration = time.Since(start)
	return res
}

// drive is RunSingle's one drive loop. A producer goroutine generates
// the stream and runs it through the private levels (FilterBlock); this
// goroutine consumes the filtered records, LLC leg then timing. The
// split is byte-identical to per-access Access calls because each cache
// still sees its own access subsequence in order, the private levels
// never read LLC or timing state, and timing never feeds back.
//
// A probed run cuts each chunk just after every access that reaches the
// interval sampler's next boundary and samples there, so the sampler
// reads the same LLC, accuracy and timing state a per-access loop would.
// With capture set, the LLC-bound records — the gap-rewritten accesses
// the LLC receives — are returned in stream order.
func drive(bg trace.BatchGenerator, core *hier.Core, llc *cache.Cache, timing *cpu.Core,
	ps *intervalSampler, capture bool) []mem.Access {
	p := startProducer(pipeBuffers, filtered(core, func(buf []mem.Access) (int, error) { return bg.NextBatch(buf), nil }))
	defer p.halt()
	var stream []mem.Access
	llcAs := make([]mem.Access, chunkSize)
	llcRs := make([]cache.Result, chunkSize)
	for fb := range p.recs {
		for rest := fb; len(rest) > 0; {
			seg := rest
			if ps != nil {
				seg = rest[:ps.cut(rest)]
			}
			n := 0
			for i := range seg {
				if seg[i].Flags&hier.FLLCBound != 0 {
					llcAs[n] = seg[i].LLC
					n++
				}
			}
			if capture {
				stream = append(stream, llcAs[:n]...)
			}
			llc.AccessBatch(llcAs[:n], llcRs[:n])
			j := 0
			for i := range seg {
				level := seg[i].PrivateLevel()
				if level == hier.LevelMemory {
					if llcRs[j].Hit {
						level = hier.LevelLLC
					}
					j++
				}
				timing.Record(seg[i].Gap, level.Latency(), seg[i].Flags&hier.FDep != 0)
			}
			if ps != nil {
				ps.maybeSample()
			}
			rest = rest[len(seg):]
		}
		p.free <- fb
	}
	return stream
}

// producer is a goroutine that fills chunks of records for a single
// consumer: generated accesses, or for the drive loops accesses already
// run through one core's private levels (see filtered). Whatever state
// fill touches belongs to the producer alone until recs is closed;
// chunk buffers transfer ownership through the recs and free channels.
type producer[T any] struct {
	recs chan []T // filled chunks in stream order; closed when the producer exits
	free chan []T // recycled chunk buffers
	err  error    // why the stream ended early; read only after recs is closed
	stop chan struct{}
	done chan struct{}
}

// startProducer starts a producer with the given number (at least 2)
// of chunk buffers, whose fill callback writes the next records into
// buf and returns how many it wrote; 0 ends the stream, and an error
// ends it with p.err set. The recs channel holds at most buffers-2
// chunks and each side holds at most one, so after every send the free
// list has a buffer for the producer, and it always has room for the
// consumer's return.
func startProducer[T any](buffers int, fill func(buf []T) (int, error)) *producer[T] {
	p := &producer[T]{
		recs: make(chan []T, buffers-2),
		free: make(chan []T, buffers),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < buffers; i++ {
		p.free <- make([]T, chunkSize)
	}
	go func() {
		defer close(p.done)
		defer close(p.recs)
		for {
			buf := <-p.free
			buf = buf[:cap(buf)] // consumers return chunks as they got them
			n, err := fill(buf)
			if err != nil {
				p.err = err
				return
			}
			if n == 0 {
				return
			}
			select {
			case p.recs <- buf[:n]:
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// filtered turns a stream fill into a producer fill that also runs
// each chunk through filter's private levels (hier.Core.FilterBlock).
func filtered(filter *hier.Core, fill func(buf []mem.Access) (int, error)) func(out []hier.Filtered) (int, error) {
	raw := make([]mem.Access, chunkSize)
	return func(out []hier.Filtered) (int, error) {
		n, err := fill(raw[:len(out)])
		if n == 0 || err != nil {
			return 0, err
		}
		filter.FilterBlock(raw[:n], out[:n])
		return n, nil
	}
}

// halt stops the producer and waits for it to exit. Consumers defer it,
// so a panic in the consumer (a policy fault in the LLC leg) leaves no
// producer blocked on its channels. Call it once.
func (p *producer[T]) halt() {
	close(p.stop)
	<-p.done
}

// fillAccuracy extracts predictor-quality metrics when the policy is a
// dead-block replacement and bypass policy (or wraps one, like the
// dueling variant). Non-DBRB baselines — and typed-nil policies — are
// tolerated via the shared accuracyOf guard (see probe.go).
func fillAccuracy(res *SingleResult, pol cache.Policy) {
	d, ok := accuracyOf(pol)
	if !ok {
		return
	}
	acc := d.Accuracy()
	res.Accuracy = &acc
	if s, ok := d.Predictor().(*predictor.Sampler); ok {
		res.UpdateFraction = s.UpdateFraction()
	}
}
