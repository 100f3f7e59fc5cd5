package cache_test

// Property and metamorphic tests: invariants that must hold for every
// access stream, checked over deterministic pseudo-random streams and
// hand-built sequences. The fuzz harness (fuzz_test.go) drives the same
// invariants from arbitrary byte strings.

import (
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
)

// checkStatsInvariants verifies the accounting identities that hold
// after any access stream:
//
//	hits + misses == accesses
//	bypasses <= misses
//	fills == (misses - bypasses) + prefetches
//	evictions + valid == fills   (blocks are conserved)
//	writebacks <= evictions
//	valid <= sets*ways
func checkStatsInvariants(t *testing.T, c *cache.Cache) {
	t.Helper()
	s := c.Stats()
	if s.Hits+s.Misses != s.Accesses {
		t.Errorf("hits %d + misses %d != accesses %d", s.Hits, s.Misses, s.Accesses)
	}
	if s.Bypasses > s.Misses {
		t.Errorf("bypasses %d > misses %d", s.Bypasses, s.Misses)
	}
	fills := s.Misses - s.Bypasses + s.Prefetches
	if s.Evictions > fills {
		t.Errorf("evictions %d > fills %d", s.Evictions, fills)
	}
	valid := uint64(c.ValidCount())
	if s.Evictions+valid != fills {
		t.Errorf("evictions %d + resident %d != fills %d", s.Evictions, valid, fills)
	}
	if s.Writebacks > s.Evictions {
		t.Errorf("writebacks %d > evictions %d", s.Writebacks, s.Evictions)
	}
	if valid > uint64(c.Sets()*c.Ways()) {
		t.Errorf("resident %d > capacity %d", valid, c.Sets()*c.Ways())
	}
}

// checkEfficiencyInvariants verifies the live/total residency
// accounting after Finish: every per-line efficiency is a fraction in
// [0,1] (live time never exceeds residency time), and so is the
// aggregate.
func checkEfficiencyInvariants(t *testing.T, c *cache.Cache) {
	t.Helper()
	if eff := c.Efficiency(); eff < 0 || eff > 1 {
		t.Errorf("aggregate efficiency %v outside [0,1]", eff)
	}
	for s, row := range c.LineEfficiencies() {
		for w, eff := range row {
			if eff < 0 || eff > 1 {
				t.Errorf("line (%d,%d) efficiency %v outside [0,1]", s, w, eff)
			}
		}
	}
}

// randomStream builds a deterministic pseudo-random access stream over
// a footprint a few times the cache's capacity, with writes mixed in.
func randomStream(seed uint64, n, blocks int) []mem.Access {
	r := mem.NewRand(seed)
	out := make([]mem.Access, n)
	for i := range out {
		out[i] = mem.Access{
			PC:    0x400000 + uint64(r.Intn(64))*4,
			Addr:  uint64(r.Intn(blocks)) * mem.BlockSize,
			Write: r.Chance(0.3),
			Gap:   uint32(r.Intn(16)),
		}
	}
	return out
}

func TestPropertyInvariantsRandomStreams(t *testing.T) {
	cfg := cache.Config{Name: "prop", SizeBytes: 64 << 10, Ways: 8} // 128 sets
	capacity := cfg.Sets() * cfg.Ways
	for seed := uint64(1); seed <= 5; seed++ {
		c := cache.New(cfg, policy.NewLRU())
		for _, a := range randomStream(seed, 20000, capacity*3) {
			c.Access(a)
		}
		c.Finish()
		checkStatsInvariants(t, c)
		checkEfficiencyInvariants(t, c)
	}
}

// TestPropertyDeterminism is the metamorphic anchor: the same stream
// replayed into a fresh cache yields identical statistics and identical
// efficiency maps.
func TestPropertyDeterminism(t *testing.T) {
	cfg := cache.Config{Name: "det", SizeBytes: 32 << 10, Ways: 4}
	stream := randomStream(42, 10000, cfg.Sets()*cfg.Ways*2)
	runOnce := func() (*cache.Cache, cache.Stats) {
		c := cache.New(cfg, policy.NewLRU())
		for _, a := range stream {
			c.Access(a)
		}
		c.Finish()
		return c, c.Stats()
	}
	c1, s1 := runOnce()
	c2, s2 := runOnce()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	e1, e2 := c1.LineEfficiencies(), c2.LineEfficiencies()
	for s := range e1 {
		for w := range e1[s] {
			if e1[s][w] != e2[s][w] {
				t.Fatalf("line (%d,%d) efficiency differs: %v vs %v", s, w, e1[s][w], e2[s][w])
			}
		}
	}
}

// TestPropertyLRUStackOrder drives one set of a 4-way LRU cache through
// a hand-built sequence and checks the stack property externally: the
// block evicted on each conflict miss is exactly the least recently
// used one.
func TestPropertyLRUStackOrder(t *testing.T) {
	// One set: 4 ways * 64B blocks.
	cfg := cache.Config{Name: "lru1", SizeBytes: 4 * mem.BlockSize, Ways: 4}
	c := cache.New(cfg, policy.NewLRU())
	addr := func(i int) uint64 { return uint64(i) * mem.BlockSize }

	// Fill ways with blocks 0..3, then touch 0 and 2 to reorder the
	// stack to (recency, MRU first): 2, 0, 3, 1.
	for i := 0; i < 4; i++ {
		if r := c.Access(mem.Access{Addr: addr(i)}); r.Hit || r.Evicted {
			t.Fatalf("fill %d: unexpected hit/eviction %+v", i, r)
		}
	}
	for _, i := range []int{0, 2} {
		if r := c.Access(mem.Access{Addr: addr(i)}); !r.Hit {
			t.Fatalf("touch %d: expected hit", i)
		}
	}

	// Each new conflicting block must evict the current LRU; the
	// expected eviction order replays the recency stack bottom-up.
	for n, wantVictim := range []int{1, 3, 0, 2} {
		r := c.Access(mem.Access{Addr: addr(10 + n)})
		if r.Hit || !r.Evicted {
			t.Fatalf("conflict %d: expected eviction, got %+v", n, r)
		}
		if r.EvictedAddr != addr(wantVictim) {
			t.Errorf("conflict %d: evicted %#x, want block %d (%#x)",
				n, r.EvictedAddr, wantVictim, addr(wantVictim))
		}
	}
	checkStatsInvariants(t, c)
}

// TestPropertyEfficiencyAccounting pins the live/dead split exactly on
// a hand-built single-set sequence: live time is fill→last hit,
// residency is fill→eviction, and dead time is their difference.
func TestPropertyEfficiencyAccounting(t *testing.T) {
	cfg := cache.Config{Name: "eff1", SizeBytes: 2 * mem.BlockSize, Ways: 2}
	c := cache.New(cfg, policy.NewLRU())
	addr := func(i int) uint64 { return uint64(i) * 2 * mem.BlockSize } // same set

	c.Access(mem.Access{Addr: addr(0)}) // clock 1: fill block 0
	c.Access(mem.Access{Addr: addr(1)}) // clock 2: fill block 1
	c.Access(mem.Access{Addr: addr(0)}) // clock 3: hit block 0 (last touch)
	for i := 0; i < 4; i++ {            // clocks 4..7: four dead accesses elsewhere
		c.Access(mem.Access{Addr: addr(1)})
	}
	r := c.Access(mem.Access{Addr: addr(2)}) // clock 8: evicts block 0 (LRU)
	if !r.Evicted || r.EvictedAddr != addr(0) {
		t.Fatalf("expected eviction of block 0, got %+v", r)
	}
	c.Finish()

	// Block 0: filled at clock 1, last hit clock 3, evicted clock 8:
	// live 2 of 7 resident ticks. Block 1: filled 2, last hit 7,
	// finished at 8: live 5 of 6. Block 2: filled and finished at 8:
	// live 0 of 0 (excluded). Aggregate: (2+5)/(7+6).
	want := float64(2+5) / float64(7+6)
	if got := c.Efficiency(); got != want {
		t.Errorf("aggregate efficiency = %v, want %v", got, want)
	}
	checkEfficiencyInvariants(t, c)
}

// TestPropertyWritebackOnlyForDirty checks the write-allocate /
// write-back contract on a directed sequence: clean evictions never
// report a writeback, dirty evictions always do, and each reports the
// evicted block's address.
func TestPropertyWritebackOnlyForDirty(t *testing.T) {
	cfg := cache.Config{Name: "wb1", SizeBytes: 2 * mem.BlockSize, Ways: 2}
	c := cache.New(cfg, policy.NewLRU())
	addr := func(i int) uint64 { return uint64(i) * 2 * mem.BlockSize }

	c.Access(mem.Access{Addr: addr(0), Write: true}) // dirty fill
	c.Access(mem.Access{Addr: addr(1)})              // clean fill
	r := c.Access(mem.Access{Addr: addr(2)})         // evicts dirty block 0
	if !r.Evicted || !r.EvictedDirty || r.EvictedAddr != addr(0) {
		t.Fatalf("dirty eviction: got %+v", r)
	}
	r = c.Access(mem.Access{Addr: addr(3)}) // evicts clean block 1
	if !r.Evicted || r.EvictedDirty || r.EvictedAddr != addr(1) {
		t.Fatalf("clean eviction: got %+v", r)
	}
	s := c.Stats()
	if s.Writebacks != 1 || s.Evictions != 2 {
		t.Fatalf("writebacks %d evictions %d, want 1 and 2", s.Writebacks, s.Evictions)
	}
}
