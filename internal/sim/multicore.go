package sim

import (
	"fmt"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// MulticoreResult reports one quad-core shared-LLC run.
type MulticoreResult struct {
	// MixName labels the workload mix.
	MixName string
	// Policy is the shared LLC policy name.
	Policy string
	// IPC is each core's IPC measured over its first full pass of its
	// benchmark (the paper's per-thread IPC_i).
	IPC [4]float64
	// Instructions is each core's first-pass instruction count.
	Instructions [4]uint64
	// LLC is the shared cache's statistics over the whole run.
	LLC cache.Stats
	// L1 and L2 are the private levels' statistics summed over cores.
	L1, L2 cache.Stats
	// Cycles is the cores' cycle counts summed (truncated per core for
	// schedule-independent aggregation).
	Cycles uint64
	// MPKI is shared-LLC misses per thousand instructions summed over
	// cores (for the paper's multicore normalized MPKI).
	MPKI float64
	// Duration is the run's wall time.
	Duration time.Duration
}

// MulticoreOptions tunes a multicore run.
type MulticoreOptions struct {
	// Scale multiplies each benchmark's default stream length; 0 means 1.
	Scale float64
	// LLC overrides the shared LLC geometry; the zero value selects the
	// paper's 8MB 16-way.
	LLC cache.Config
}

func (o *MulticoreOptions) normalize() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.LLC.SizeBytes == 0 {
		o.LLC = hier.LLCConfig(4)
	}
}

// mcCore is one core's merge-side state in a multicore run. Its stream
// arrives pre-filtered through the core's private levels from a
// producer goroutine (see prefill); the merge loop owns only the
// timing model and first-pass bookkeeping.
type mcCore struct {
	timing *cpu.Core
	id     int

	src *producer[hier.Filtered]
	cur []hier.Filtered
	pos int

	left    int // first-pass records not yet merged; 0 at the pass's last record
	doneIPC float64
}

// next returns the core's next pre-filtered record in stream order,
// pulling a fresh chunk from the producer when the current one is
// drained.
func (c *mcCore) next() (hier.Filtered, error) {
	if c.pos >= len(c.cur) {
		if c.cur != nil {
			c.src.free <- c.cur
		}
		chunk, err := c.src.next()
		if chunk == nil {
			return hier.Filtered{}, err
		}
		c.cur, c.pos = chunk, 0
	}
	f := c.cur[c.pos]
	c.pos++
	return f, nil
}

// prefill returns a core's producer fill function: it generates the
// (infinitely restarting) reference stream a full chunk at a time and
// tags each access with the core's thread ID and address-space bits —
// before private filtering, exactly as the per-access loop did. Each
// core's producer then runs its chunks through the core's own private
// L1/L2, so that work runs in parallel across cores while the merge
// loop serializes only the shared-LLC leg.
func prefill(id int, mixName string, bg trace.BatchGenerator) func(buf []mem.Access) (int, error) {
	return func(buf []mem.Access) (int, error) {
		n := 0
		for n < len(buf) {
			k := bg.NextBatch(buf[n:])
			if k == 0 {
				bg.Reset()
				if k = bg.NextBatch(buf[n:]); k == 0 {
					return 0, fmt.Errorf("sim: mix %s: empty workload stream on core %d", mixName, id)
				}
			}
			n += k
		}
		for i := range buf {
			buf[i].Thread = uint8(id)
			// Each core gets its own physical address space.
			buf[i].Addr |= uint64(id+1) << 56
		}
		return n, nil
	}
}

// accumPrivate replays one pre-filtered record's private-level counter
// effects into the run's summed L1/L2 statistics. The flags carry
// everything the private caches counted for a demand access (writebacks
// are not propagated in this configuration, and private LRU caches
// never bypass or hold prefetches), so the sums match reading the
// caches' own statistics over the consumed prefix — which the producer
// caches themselves cannot provide, since they run ahead of the merge.
func accumPrivate(res *MulticoreResult, flags uint16) {
	res.L1.Accesses++
	if flags&hier.FWrite != 0 {
		res.L1.Writes++
	}
	if flags&hier.FL1Hit != 0 {
		res.L1.Hits++
		return
	}
	res.L1.Misses++
	if flags&hier.FL1Evict != 0 {
		res.L1.Evictions++
	}
	if flags&hier.FL1Writeback != 0 {
		res.L1.Writebacks++
	}
	res.L2.Accesses++
	if flags&hier.FWrite != 0 {
		res.L2.Writes++
	}
	if flags&hier.FL2Hit != 0 {
		res.L2.Hits++
		return
	}
	res.L2.Misses++
	if flags&hier.FL2Evict != 0 {
		res.L2.Evictions++
	}
	if flags&hier.FL2Writeback != 0 {
		res.L2.Writebacks++
	}
}

// RunMulticore simulates a quad-core mix sharing one LLC under the given
// policy, following the paper's methodology: every benchmark restarts
// when it finishes until all have completed at least one full pass, and
// each core's IPC is measured at the end of its own first pass. Cores
// interleave by simulated time: each step advances the core whose clock
// is furthest behind.
//
// Each core's generation and private L1/L2 filtering run in a producer
// goroutine (goroutine-parallel across cores); the merge loop consumes
// the pre-filtered streams in per-core order, so the simulated-time
// interleaving at the shared LLC — and with it every statistic — is
// byte-identical to the sequential per-access loop it replaces.
//
// Construction problems — an unknown mix member, an empty stream — are
// returned as errors rather than panicking, so one bad mix config
// cannot kill a whole evaluation campaign.
func RunMulticore(mix workloads.Mix, pol cache.Policy, opts MulticoreOptions) (MulticoreResult, error) {
	opts.normalize()
	start := time.Now()

	// Efficiency is never reported for multicore runs, and the shared
	// LLC's per-line clocks would be its largest arrays.
	llcCfg := opts.LLC
	llcCfg.SkipEfficiency = true
	llc := cache.New(llcCfg, pol)
	res := MulticoreResult{MixName: mix.Name, Policy: pol.Name()}

	cores := make([]*mcCore, 4)
	defer func() {
		for _, c := range cores {
			if c != nil {
				c.src.halt()
			}
		}
	}()
	for i, name := range mix.Members {
		w, err := workloads.ByName(name)
		if err != nil {
			return MulticoreResult{}, fmt.Errorf("sim: mix %s: %w", mix.Name, err)
		}
		cores[i] = &mcCore{
			timing: cpu.New(cpu.DefaultConfig()),
			id:     i,
			left:   w.Accesses(opts.Scale),
			src:    startProducer(pipeBuffers, filtered(hier.NewCore(hier.DefaultConfig(), nil), prefill(i, mix.Name, memberGenerator(w, opts.Scale)))),
		}
	}

	remaining := len(cores)
	for remaining > 0 {
		// Advance the core furthest behind in simulated time.
		var next *mcCore
		for _, c := range cores {
			if next == nil || c.timing.Cycles() < next.timing.Cycles() {
				next = c
			}
		}
		f, err := next.next()
		if err != nil {
			return MulticoreResult{}, err
		}
		level := f.PrivateLevel()
		if level == hier.LevelMemory && llc.Access(f.LLC).Hit {
			level = hier.LevelLLC
		}
		next.timing.Record(f.Gap, level.Latency(), f.Flags&hier.FDep != 0)
		accumPrivate(&res, f.Flags)

		// A core's first pass ends on its stream's last record; left then
		// runs negative through the restarted passes, never 0 again.
		if next.left--; next.left == 0 {
			next.doneIPC = next.timing.IPC()
			res.Instructions[next.id] = next.timing.Instructions()
			remaining--
		}
	}

	var totalInstr uint64
	for i, c := range cores {
		res.IPC[i] = c.doneIPC
		totalInstr += res.Instructions[i]
		res.Cycles += uint64(c.timing.Cycles())
	}
	res.LLC = llc.Stats()
	if totalInstr > 0 {
		res.MPKI = float64(res.LLC.Misses) / (float64(totalInstr) / 1000)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// SingleIPC returns a benchmark's IPC running alone with the given LLC
// geometry under LRU — the denominator of the paper's weighted
// speedup. An unknown benchmark name is an error, not a panic.
func SingleIPC(name string, llcCfg cache.Config, scale float64, makeLRU func() cache.Policy) (float64, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return 0, err
	}
	r := RunSingle(w, makeLRU(), SingleOptions{Scale: scale, LLC: llcCfg})
	return r.IPC, nil
}
