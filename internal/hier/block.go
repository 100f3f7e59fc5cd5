package hier

import "sdbp/internal/mem"

// This file is the hierarchy's block-granular surface. The drive loops
// in internal/sim hand whole blocks of demand accesses to a core at
// once: FilterBlock runs the private L1/L2 levels as one tight loop and
// returns the LLC-bound records, and the caller delivers them to its
// LLC. The split is byte-identical to repeated Access calls — pinned by
// the goldens and the policytest hierarchy differential — because no
// level ever reads another level's state between accesses.

// Filtered is one access's outcome through the private levels, in the
// form the ordered LLC merge consumes: which private level satisfied it
// (or the gap-rewritten LLC-bound record when neither did), plus the
// flag bits a merge loop needs to reconstruct the exact private-level
// statistics of the consumed prefix of a pre-filtered stream.
type Filtered struct {
	// LLC is the gap-rewritten LLC-bound record; meaningful only when
	// FLLCBound is set.
	LLC mem.Access
	// Gap is the access's original instruction gap — the timing model's
	// input, unchanged by LLC gap rewriting.
	Gap uint32
	// Flags holds the F* outcome bits.
	Flags uint16
}

// Filtered outcome flags. FL1Evict/FL1Writeback (and the L2 pair)
// record eviction side effects so a consumer can replay Evictions and
// Writebacks counters without re-running the caches.
const (
	// FWrite: the access was a store.
	FWrite uint16 = 1 << iota
	// FDep: the access was a dependent (pointer-chasing) load.
	FDep
	// FL1Hit: the L1 satisfied the access; no other level saw it.
	FL1Hit
	// FL1Evict: the L1 miss evicted a valid block.
	FL1Evict
	// FL1Writeback: the evicted L1 block was dirty.
	FL1Writeback
	// FL2Hit: the L2 satisfied the access (implies L1 miss).
	FL2Hit
	// FL2Evict: the L2 miss evicted a valid block.
	FL2Evict
	// FL2Writeback: the evicted L2 block was dirty.
	FL2Writeback
	// FLLCBound: both private levels missed; LLC holds the record to
	// deliver to the last-level cache.
	FLLCBound
)

// PrivateLevel returns the level that satisfied a filtered access, with
// LevelMemory standing in for "LLC-bound" (the LLC leg has not run yet).
func (f *Filtered) PrivateLevel() Level {
	switch {
	case f.Flags&FL1Hit != 0:
		return LevelL1
	case f.Flags&FL2Hit != 0:
		return LevelL2
	default:
		return LevelMemory
	}
}

// FilterBlock runs a block of demand accesses through the private
// levels only, writing one Filtered record per access into out (which
// must satisfy len(out) >= len(as)). It is the block-granular form of a
// capture-only core: L1/L2 state, statistics, and LLC gap rewriting
// advance exactly as per-access Access calls would, but the LLC — if
// any — is untouched, and LLC-bound records are returned in the out
// array rather than delivered anywhere.
func (c *Core) FilterBlock(as []mem.Access, out []Filtered) {
	out = out[:len(as)] // hoist the bounds check out of the loop
	for i := range as {
		a := &as[i]
		c.pendingGap += uint64(a.Gap) + 1
		f := Filtered{Gap: a.Gap}
		if a.Write {
			f.Flags |= FWrite
		}
		if a.DependentLoad {
			f.Flags |= FDep
		}
		hit, ev, evd := c.L1.AccessPrivate(*a)
		if hit {
			f.Flags |= FL1Hit
			out[i] = f
			continue
		}
		if ev {
			f.Flags |= FL1Evict
		}
		if evd {
			f.Flags |= FL1Writeback
		}
		hit, ev, evd = c.L2.AccessPrivate(*a)
		if hit {
			f.Flags |= FL2Hit
			out[i] = f
			continue
		}
		if ev {
			f.Flags |= FL2Evict
		}
		if evd {
			f.Flags |= FL2Writeback
		}
		f.Flags |= FLLCBound
		llcA := *a
		gap := c.pendingGap - 1
		if gap > 1<<32-1 {
			gap = 1<<32 - 1
		}
		llcA.Gap = uint32(gap)
		c.pendingGap = 0
		f.LLC = llcA
		out[i] = f
	}
}
