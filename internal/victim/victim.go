// Package victim implements a victim cache next to the LLC, optionally
// filtered by dead block prediction — the application Hu et al. (ISCA
// 2002) drove with their time-based predictor and one of the paper's
// "optimizations other than replacement and bypass".
//
// An unfiltered victim cache buffers every LLC victim; most of them are
// dead, so its few entries churn uselessly. The filtered variant admits
// only victims the predictor believes are live — evicted by capacity
// pressure rather than by the end of their use — concentrating the
// buffer's capacity on blocks with a future.
package victim

import (
	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/dbrb"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// Cache is a small fully-associative LRU victim buffer.
type Cache struct {
	entries []uint64 // block addresses, MRU first
	size    int

	hits, inserts uint64
}

// NewCache returns a victim buffer holding size blocks.
func NewCache(size int) *Cache {
	if size < 1 {
		panic("victim: size must be positive")
	}
	return &Cache{size: size}
}

// Lookup probes the buffer; on a hit the entry is removed (the block
// moves back into the main cache).
func (v *Cache) Lookup(addr uint64) bool {
	b := mem.BlockAddr(addr)
	for i, e := range v.entries {
		if e == b {
			v.entries = append(v.entries[:i], v.entries[i+1:]...)
			v.hits++
			return true
		}
	}
	return false
}

// Insert adds a victim block, displacing the LRU entry when full.
func (v *Cache) Insert(addr uint64) {
	b := mem.BlockAddr(addr)
	for i, e := range v.entries {
		if e == b {
			v.entries = append(v.entries[:i], v.entries[i+1:]...)
			break
		}
	}
	if len(v.entries) >= v.size {
		v.entries = v.entries[:v.size-1]
	}
	v.entries = append([]uint64{b}, v.entries...)
	v.inserts++
}

// Hits returns the number of successful lookups.
func (v *Cache) Hits() uint64 { return v.hits }

// Inserts returns the number of insertions.
func (v *Cache) Inserts() uint64 { return v.inserts }

// Result reports one victim cache experiment run.
type Result struct {
	// Benchmark and Config identify the run.
	Benchmark, Config string
	// IPC is instructions per cycle.
	IPC float64
	// MPKI is misses (past both LLC and victim buffer) per
	// kilo-instruction.
	MPKI float64
	// VCHits and VCInserts are the victim buffer's counters.
	VCHits, VCInserts uint64
}

// HitsPerInsert returns the buffer's yield: hits per insertion.
func (r Result) HitsPerInsert() float64 {
	if r.VCInserts == 0 {
		return 0
	}
	return float64(r.VCHits) / float64(r.VCInserts)
}

// deadSnoop wraps a dead-block policy to expose whether each eviction's
// victim stood predicted dead at the moment it was evicted.
type deadSnoop struct {
	*dbrb.Policy
	lastWasDead bool
}

func (s *deadSnoop) OnEvict(set uint32, way int) {
	s.lastWasDead = s.Policy.IsDead(set, way)
	s.Policy.OnEvict(set, way)
}

// Run simulates a benchmark with a victim buffer of vcSize blocks next
// to the LLC. With filtered set, only victims the sampling predictor
// considers live enter the buffer; the LLC runs the same dead-block
// replacement and bypass policy either way, so the comparison isolates
// the filter.
func Run(w workloads.Workload, mk func() *dbrb.Policy, vcSize int, filtered bool, scale float64) Result {
	pol := mk()
	snoop := &deadSnoop{Policy: pol}
	// The study reports no cache efficiency, so the LLC keeps none.
	llcCfg := hier.LLCConfig(1)
	llcCfg.SkipEfficiency = true
	llc := cache.New(llcCfg, snoop)
	timing := cpu.New(cpu.DefaultConfig())
	vc := NewCache(vcSize)

	cfg := "unfiltered"
	if filtered {
		cfg = "dead-filtered"
	}
	res := Result{Benchmark: w.Name, Config: cfg}

	var misses, instructions uint64
	sim.Filter(w, scale, func(recs []hier.Filtered) {
		for i := range recs {
			f := &recs[i]
			instructions += uint64(f.Gap) + 1
			lat := f.PrivateLevel().Latency()
			if f.Flags&hier.FLLCBound != 0 {
				r := llc.Access(f.LLC)
				// snoop has recorded the victim's verdict by now.
				if r.Evicted && (!filtered || !snoop.lastWasDead) {
					vc.Insert(r.EvictedAddr)
				}
				switch {
				case r.Hit:
					lat = hier.LevelLLC.Latency()
				case vc.Lookup(f.LLC.Addr):
					// The LLC missed but the victim buffer hit: a little
					// over an LLC hit instead of a memory access.
					lat = cpu.LatLLC + 4
				default:
					misses++
				}
			}
			timing.Record(f.Gap, lat, f.Flags&hier.FDep != 0)
		}
	})

	res.IPC = timing.IPC()
	if instructions > 0 {
		res.MPKI = float64(misses) / (float64(instructions) / 1000)
	}
	res.VCHits = vc.Hits()
	res.VCInserts = vc.Inserts()
	return res
}
