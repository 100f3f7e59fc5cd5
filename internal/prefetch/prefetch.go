// Package prefetch implements dead-block-directed prefetching — the
// application that introduced dead block prediction (Lai, Fide,
// Falsafi, ISCA 2001) and one of the "optimizations other than
// replacement and bypass" the paper's future work points at.
//
// A sequential prefetcher watches LLC demand misses and fetches the
// next Degree blocks. What distinguishes the dead-block variant is
// *placement*: prefetched blocks may only overwrite predicted-dead
// blocks (via cache.PrefetchPlacer), so useless prefetches can never
// displace live data. The package's experiment compares no prefetching,
// polluting placement (prefetches displace the LRU block), and
// dead-block placement.
package prefetch

import (
	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// Config tunes the prefetcher.
type Config struct {
	// Degree is how many sequential blocks each miss prefetches.
	Degree int
}

// DefaultConfig returns a degree-4 sequential prefetcher.
func DefaultConfig() Config { return Config{Degree: 4} }

// Result reports a prefetch experiment run.
type Result struct {
	// Benchmark and Policy identify the run.
	Benchmark, Policy string
	// IPC is instructions per cycle with prefetching active.
	IPC float64
	// DemandMPKI is demand misses per kilo-instruction (prefetch fills
	// excluded).
	DemandMPKI float64
	// Issued is the number of prefetch candidates generated.
	Issued uint64
	// Placed is how many prefetches the placement rule admitted.
	Placed uint64
	// Useful is how many placed prefetches were demanded before
	// eviction.
	Useful uint64
}

// Accuracy returns Useful/Placed (0 when nothing was placed).
func (r Result) Accuracy() float64 {
	if r.Placed == 0 {
		return 0
	}
	return float64(r.Useful) / float64(r.Placed)
}

// Coverage returns the fraction of demand misses removed relative to
// base (a run of the same policy without prefetching).
func Coverage(base, pf Result) float64 {
	if base.DemandMPKI == 0 {
		return 0
	}
	return 1 - pf.DemandMPKI/base.DemandMPKI
}

// Run simulates one benchmark with a sequential LLC prefetcher over the
// given LLC policy. Placement follows the policy: policies implementing
// cache.PrefetchPlacer admit prefetches by their own victim rule, so a
// dead-block policy admits them only into predicted-dead blocks.
// Prefetch fills consume DRAM bandwidth in the timing model.
func Run(w workloads.Workload, pol cache.Policy, cfg Config, scale float64) Result {
	if cfg.Degree < 0 {
		panic("prefetch: negative degree")
	}
	// The study reports no cache efficiency, so the LLC keeps none.
	llcCfg := hier.LLCConfig(1)
	llcCfg.SkipEfficiency = true
	llc := cache.New(llcCfg, pol)
	timing := cpu.New(cpu.DefaultConfig())

	res := Result{Benchmark: w.Name, Policy: pol.Name()}
	sim.Filter(w, scale, func(recs []hier.Filtered) {
		for i := range recs {
			f := &recs[i]
			level := f.PrivateLevel()
			if level == hier.LevelMemory {
				if llc.Access(f.LLC).Hit {
					level = hier.LevelLLC
				} else {
					// A demand miss triggers the prefetcher before the
					// access retires.
					for d := 1; d <= cfg.Degree; d++ {
						res.Issued++
						p := f.LLC
						p.Addr = mem.BlockAddr(f.LLC.Addr) + uint64(d)*mem.BlockSize
						p.Write = false
						if llc.InsertPrefetch(p) {
							timing.ChargeDRAM()
						}
					}
				}
			}
			timing.Record(f.Gap, level.Latency(), f.Flags&hier.FDep != 0)
		}
	})

	s := llc.Stats()
	res.IPC = timing.IPC()
	res.Placed = s.Prefetches
	res.Useful = s.UsefulPrefetches
	if n := timing.Instructions(); n > 0 {
		res.DemandMPKI = float64(s.Misses) / (float64(n) / 1000)
	}
	return res
}
