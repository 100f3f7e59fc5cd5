package cache

import "sdbp/internal/mem"

// This file is the cache's block-granular surface. The simulator's
// drive loops move accesses in blocks ([]mem.Access), and the batch
// entry points here let them hand a whole block to one cache at a time:
// AccessBatch for any policy (amortizing the per-call overhead of the
// general path), AccessPrivate for the private L1/L2 shape (plain LRU,
// no efficiency metadata), where the per-access Result — most of which
// the hierarchy discards — is replaced by the three values it actually
// reads. Both are pinned byte-identical to the per-access path by the
// batch differential in internal/policy/policytest.

// AccessBatch performs the accesses of as in order, exactly as repeated
// Access calls would: same policy hook sequence, same statistics, same
// final tag state. When rs is non-nil it must satisfy len(rs) >=
// len(as) and receives each access's Result; a nil rs is the
// state-effects-only form (functional warming in the sampled runner),
// which skips Result stores entirely.
func (c *Cache) AccessBatch(as []mem.Access, rs []Result) {
	if len(as) == 0 {
		return
	}
	if rs == nil {
		for i := range as {
			c.Access(as[i])
		}
		return
	}
	rs = rs[:len(as)] // hoist the bounds check out of the loop
	for i := range as {
		rs[i] = c.Access(as[i])
	}
}

// AccessPrivate performs one reference on a private-shaped cache —
// plain LRU and no efficiency accounting, the configuration hier always
// gives the L1 and L2 — returning only what the hierarchy consumes:
// whether the block hit, whether a valid block was evicted, and
// whether that victim was dirty. On any other cache shape it falls
// back through Access, so callers need no shape check of their own.
// State and statistics advance exactly as Access would advance them.
func (c *Cache) AccessPrivate(a mem.Access) (hit, evicted, evictedDirty bool) {
	if c.lru == nil || c.lines != nil {
		r := c.Access(a)
		return r.Hit, r.Evicted, r.EvictedDirty
	}
	bn := a.Addr >> mem.BlockBits
	if bn == c.memoBN {
		// Repeat of the previous access's line: it is necessarily still
		// resident (nothing touched this cache in between) and at MRU,
		// so the key scan, the prefetch-flag check (a demand access
		// already cleared it), and the promotion are all no-ops. Only
		// the counters and the dirty bit can change.
		c.clock++
		c.stats.Accesses++
		c.stats.Hits++
		if a.Write {
			c.stats.Writes++
			c.keys[c.memoIdx] |= keyDirty
		}
		return true, false, false
	}
	c.clock++
	c.stats.Accesses++
	if a.Write {
		c.stats.Writes++
	}
	set := uint32(bn & c.setMask)
	tag := bn >> c.tagShift

	keys := c.setKeys(set)
	want := lineKey(tag)
	invalid := -1
	for w, k := range keys {
		if k&^keyFlags == want {
			c.stats.Hits++
			if k&keyPrefetched != 0 {
				k &^= keyPrefetched
				c.stats.UsefulPrefetches++
			}
			if a.Write {
				k |= keyDirty
			}
			keys[w] = k
			c.lru.Promote(set, w)
			c.memoBN, c.memoIdx = bn, int32(int(set)*c.ways+w)
			return true, false, false
		}
		if k == 0 && invalid < 0 {
			invalid = w
		}
	}

	// Miss: plain LRU never bypasses. Prefer an invalid way.
	c.stats.Misses++
	victim := invalid
	if victim < 0 {
		victim = c.lru.Victim(set)
		k := keys[victim]
		c.stats.Evictions++
		evicted = true
		if k&keyDirty != 0 {
			evictedDirty = true
			c.stats.Writebacks++
		}
	}

	nk := want
	if a.Write {
		nk |= keyDirty
	}
	keys[victim] = nk
	if *c.lruInsert {
		// Insert-at-LRU leaves the fill below MRU, where a repeat access
		// would have to promote it — not a memoizable state.
		c.lru.Demote(set, victim)
		c.memoBN = memoNone
	} else {
		c.lru.Promote(set, victim)
		c.memoBN, c.memoIdx = bn, int32(int(set)*c.ways+victim)
	}
	return false, evicted, evictedDirty
}

// KeysSnapshot returns a copy of the packed per-way lookup keys (tag,
// valid, dirty, prefetched — see lineKey), row-major by set: the
// cache's complete tag-array state. Differential tests compare
// snapshots to assert that two drive paths left byte-identical caches.
func (c *Cache) KeysSnapshot() []uint64 {
	out := make([]uint64, len(c.keys))
	copy(out, c.keys)
	return out
}
