package hier

import (
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
)

func newTestCore() *Core {
	llc := cache.New(LLCConfig(1), policy.NewLRU())
	return NewCore(DefaultConfig(), llc)
}

func TestDefaultGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1.SizeBytes != 32<<10 || cfg.L1.Ways != 8 {
		t.Errorf("L1 = %+v", cfg.L1)
	}
	if cfg.L2.SizeBytes != 256<<10 || cfg.L2.Ways != 8 {
		t.Errorf("L2 = %+v", cfg.L2)
	}
	if llc := LLCConfig(1); llc.SizeBytes != 2<<20 || llc.Ways != 16 {
		t.Errorf("LLC(1) = %+v", llc)
	}
	if llc := LLCConfig(4); llc.SizeBytes != 8<<20 {
		t.Errorf("LLC(4) = %+v", llc)
	}
}

func TestMissFillsAllLevels(t *testing.T) {
	c := newTestCore()
	a := mem.Access{Addr: 0x10000}
	if lvl := c.Access(a); lvl != LevelMemory {
		t.Fatalf("cold access satisfied at %v", lvl)
	}
	if !c.L1.Contains(a.Addr) || !c.L2.Contains(a.Addr) || !c.LLC.Contains(a.Addr) {
		t.Error("miss did not allocate at every level")
	}
	if lvl := c.Access(a); lvl != LevelL1 {
		t.Errorf("second access satisfied at %v, want L1", lvl)
	}
}

func TestLevelsReportedByResidence(t *testing.T) {
	c := newTestCore()
	a := mem.Access{Addr: 0x40}
	c.Access(a)
	// Evict from L1 by filling its set (L1: 64 sets, 8 ways; stride
	// 64 sets * 64B = 4KB keeps the same L1 set).
	for i := 1; i <= 8; i++ {
		c.Access(mem.Access{Addr: a.Addr + uint64(i)*4096})
	}
	if c.L1.Contains(a.Addr) {
		t.Fatal("block still in L1 after conflict fills")
	}
	if lvl := c.Access(a); lvl != LevelL2 {
		t.Errorf("access satisfied at %v, want L2", lvl)
	}
}

func TestL2FiltersLLCTraffic(t *testing.T) {
	c := newTestCore()
	// A working set fitting the L2 but not the L1: after warmup the
	// LLC sees no more traffic.
	blocks := 2048 // 128KB: half the L2, 4x the L1
	for lap := 0; lap < 3; lap++ {
		for b := 0; b < blocks; b++ {
			c.Access(mem.Access{Addr: uint64(b) * mem.BlockSize})
		}
	}
	llcAccesses := c.LLC.Stats().Accesses
	if llcAccesses != uint64(blocks) {
		t.Errorf("LLC saw %d accesses, want %d (cold fills only)", llcAccesses, blocks)
	}
}

// llcBound returns the LLC-bound records FilterBlock wrote into recs.
func llcBound(recs []Filtered) []mem.Access {
	var out []mem.Access
	for _, f := range recs {
		if f.Flags&FLLCBound != 0 {
			out = append(out, f.LLC)
		}
	}
	return out
}

func TestCaptureGapAccounting(t *testing.T) {
	c := NewCore(DefaultConfig(), nil)
	as := []mem.Access{
		// First access: gap 4 -> LLC access with gap 4 (instructions
		// before it: 4 non-memory).
		{Addr: 0, Gap: 4},
		// Two L1 hits (gap 2 and 3) then a new block (gap 1): the
		// captured gap covers everything since the last LLC access:
		// 2+1 + 3+1 + 1.
		{Addr: 0, Gap: 2},
		{Addr: 8, Gap: 3},
		{Addr: 4096 * 64, Gap: 1},
	}
	// Two blocks: the gap counter carries across the block edge.
	recs := make([]Filtered, len(as))
	c.FilterBlock(as[:2], recs[:2])
	c.FilterBlock(as[2:], recs[2:])

	captured := llcBound(recs)
	if len(captured) != 2 {
		t.Fatalf("captured %d LLC accesses, want 2", len(captured))
	}
	if captured[0].Gap != 4 {
		t.Errorf("first captured gap = %d, want 4", captured[0].Gap)
	}
	if captured[1].Gap != 8 {
		t.Errorf("second captured gap = %d, want 8 (2+1+3+1+1)", captured[1].Gap)
	}
	for i, f := range recs {
		if f.Gap != as[i].Gap {
			t.Errorf("record %d carries gap %d, want the access's own %d", i, f.Gap, as[i].Gap)
		}
	}
}

// TestCaptureMatchesLLCAccessCount checks FilterBlock's LLC-bound
// records against what per-access Access delivers to an LLC: one
// record per LLC access, and the same private-level statistics.
func TestCaptureMatchesLLCAccessCount(t *testing.T) {
	ref := newTestCore()
	c := NewCore(DefaultConfig(), nil)
	r := mem.NewRand(1)
	as := make([]mem.Access, 20000)
	for i := range as {
		as[i] = mem.Access{Addr: uint64(r.Intn(1 << 16)), Gap: uint32(r.Intn(4))}
		ref.Access(as[i])
	}
	recs := make([]Filtered, len(as))
	c.FilterBlock(as, recs)
	if n := uint64(len(llcBound(recs))); n != ref.LLC.Stats().Accesses {
		t.Errorf("captured %d, LLC counted %d", n, ref.LLC.Stats().Accesses)
	}
	if c.L1.Stats() != ref.L1.Stats() || c.L2.Stats() != ref.L2.Stats() {
		t.Errorf("FilterBlock L1 %+v L2 %+v, Access L1 %+v L2 %+v",
			c.L1.Stats(), c.L2.Stats(), ref.L1.Stats(), ref.L2.Stats())
	}
}

func TestSharedLLCAcrossCores(t *testing.T) {
	llc := cache.New(LLCConfig(4), policy.NewLRU())
	c1 := NewCore(DefaultConfig(), llc)
	c2 := NewCore(DefaultConfig(), llc)
	a := mem.Access{Addr: 0xABCDE0}
	c1.Access(a)
	// Core 2 misses its private levels but hits the shared LLC.
	if lvl := c2.Access(a); lvl != LevelLLC {
		t.Errorf("core 2 satisfied at %v, want shared LLC", lvl)
	}
}

func TestLevelLatenciesAndStrings(t *testing.T) {
	levels := []Level{LevelL1, LevelL2, LevelLLC, LevelMemory}
	last := 0
	for _, l := range levels {
		if l.Latency() <= last {
			t.Errorf("latency not increasing at %v", l)
		}
		last = l.Latency()
		if l.String() == "" {
			t.Errorf("empty name for level %d", l)
		}
	}
}

func TestNilLLCIsCaptureOnly(t *testing.T) {
	c := NewCore(DefaultConfig(), nil)
	if lvl := c.Access(mem.Access{Addr: 0}); lvl != LevelMemory {
		t.Errorf("nil-LLC miss reported %v", lvl)
	}
}

func TestCoreStatsReconcile(t *testing.T) {
	c := newTestCore()
	for i := 0; i < 5000; i++ {
		c.Access(mem.Access{Addr: uint64(i%700) * 64})
	}
	ls := c.Stats()
	for _, lvl := range []struct {
		name string
		s    cache.Stats
	}{{"L1", ls.L1}, {"L2", ls.L2}, {"LLC", ls.LLC}} {
		if lvl.s.Hits+lvl.s.Misses != lvl.s.Accesses {
			t.Errorf("%s: hits(%d)+misses(%d) != accesses(%d)",
				lvl.name, lvl.s.Hits, lvl.s.Misses, lvl.s.Accesses)
		}
	}
	if ls.L1.Accesses != 5000 {
		t.Errorf("L1 accesses = %d, want 5000", ls.L1.Accesses)
	}
	// Inclusive-path filtering: each level only sees the misses of the
	// one above it.
	if ls.L2.Accesses != ls.L1.Misses {
		t.Errorf("L2 accesses (%d) != L1 misses (%d)", ls.L2.Accesses, ls.L1.Misses)
	}
	if ls.LLC.Accesses != ls.L2.Misses {
		t.Errorf("LLC accesses (%d) != L2 misses (%d)", ls.LLC.Accesses, ls.L2.Misses)
	}
	tot := ls.Total()
	if tot.Accesses != ls.L1.Accesses+ls.L2.Accesses+ls.LLC.Accesses {
		t.Errorf("Total().Accesses = %d, want sum of levels", tot.Accesses)
	}
}

func TestCoreStatsNilLLC(t *testing.T) {
	c := NewCore(DefaultConfig(), nil)
	c.Access(mem.Access{Addr: 0x40})
	ls := c.Stats()
	if ls.LLC != (cache.Stats{}) {
		t.Errorf("nil-LLC core reported LLC stats: %+v", ls.LLC)
	}
	if ls.L1.Accesses != 1 {
		t.Errorf("L1 accesses = %d, want 1", ls.L1.Accesses)
	}
}
