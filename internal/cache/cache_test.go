package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"sdbp/internal/mem"
)

// fifoPolicy is a minimal test policy: FIFO victims, optional bypass of
// a marked address, and a record of hook calls.
type fifoPolicy struct {
	Base
	ways      int
	next      []int
	bypassOn  uint64
	hits      int
	fills     int
	evictions int
}

func (p *fifoPolicy) Name() string { return "FIFO" }
func (p *fifoPolicy) Reset(sets, ways int) {
	p.ways = ways
	p.next = make([]int, sets)
}
func (p *fifoPolicy) Victim(set uint32, _ mem.Access) int {
	v := p.next[set]
	p.next[set] = (v + 1) % p.ways
	return v
}
func (p *fifoPolicy) Bypass(_ uint32, a mem.Access) bool {
	return p.bypassOn != 0 && mem.BlockAddr(a.Addr) == p.bypassOn
}
func (p *fifoPolicy) OnHit(uint32, int, mem.Access)  { p.hits++ }
func (p *fifoPolicy) OnFill(uint32, int, mem.Access) { p.fills++ }
func (p *fifoPolicy) OnEvict(uint32, int)            { p.evictions++ }

func smallCache(p Policy) *Cache {
	// 4 sets x 2 ways of 64B blocks = 512B.
	return New(Config{Name: "test", SizeBytes: 512, Ways: 2}, p)
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16}
	if got := cfg.Sets(); got != 2048 {
		t.Errorf("Sets() = %d, want 2048", got)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate() = %v", err)
	}
}

func TestConfigValidateRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{Name: "zero", SizeBytes: 0, Ways: 4},
		{Name: "negways", SizeBytes: 1024, Ways: 0},
		{Name: "nonpow2", SizeBytes: 3 * 64 * 4, Ways: 4},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", cfg)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on invalid config")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 0, Ways: 1}, &fifoPolicy{})
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(&fifoPolicy{})
	a := mem.Access{Addr: 0x1000}
	if r := c.Access(a); r.Hit {
		t.Error("first access hit")
	}
	if r := c.Access(a); !r.Hit {
		t.Error("second access missed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Accesses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameSetDistinctTags(t *testing.T) {
	c := smallCache(&fifoPolicy{})
	// Two blocks mapping to the same set (stride = sets*blocksize).
	a1 := mem.Access{Addr: 0}
	a2 := mem.Access{Addr: 4 * 64}
	c.Access(a1)
	c.Access(a2)
	if !c.Contains(a1.Addr) || !c.Contains(a2.Addr) {
		t.Error("2-way set should hold both blocks")
	}
	// A third block in the same set evicts the FIFO victim (a1).
	c.Access(mem.Access{Addr: 8 * 64})
	if c.Contains(a1.Addr) {
		t.Error("FIFO victim not evicted")
	}
	if !c.Contains(a2.Addr) {
		t.Error("non-victim evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	p := &fifoPolicy{}
	c := smallCache(p)
	dirty := mem.Access{Addr: 0, Write: true}
	c.Access(dirty)
	c.Access(mem.Access{Addr: 4 * 64})
	r := c.Access(mem.Access{Addr: 8 * 64}) // evicts the dirty block
	if !r.Evicted || !r.EvictedDirty {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if r.EvictedAddr != 0 {
		t.Errorf("EvictedAddr = %#x, want 0", r.EvictedAddr)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

// TestResultLayout pins Result at 16 bytes: AccessBatch stores one
// per access, and the four flags share the word before EvictedAddr.
func TestResultLayout(t *testing.T) {
	if got := unsafe.Sizeof(Result{}); got != 16 {
		t.Errorf("Result is %d bytes, want 16 (4 flag bytes + padding + 8 EvictedAddr)", got)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := smallCache(&fifoPolicy{})
	c.Access(mem.Access{Addr: 0})              // clean fill
	c.Access(mem.Access{Addr: 0, Write: true}) // dirty on hit
	c.Access(mem.Access{Addr: 4 * 64})
	r := c.Access(mem.Access{Addr: 8 * 64})
	if !r.EvictedDirty {
		t.Error("write hit did not mark block dirty")
	}
}

func TestBypassDoesNotFill(t *testing.T) {
	p := &fifoPolicy{bypassOn: 0x2000}
	c := smallCache(p)
	r := c.Access(mem.Access{Addr: 0x2000})
	if !r.Bypassed || r.Hit {
		t.Fatalf("expected bypass, got %+v", r)
	}
	if c.Contains(0x2000) {
		t.Error("bypassed block was filled")
	}
	if c.Stats().Bypasses != 1 || c.Stats().Misses != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestHookSequence(t *testing.T) {
	p := &fifoPolicy{}
	c := smallCache(p)
	c.Access(mem.Access{Addr: 0})      // fill
	c.Access(mem.Access{Addr: 0})      // hit
	c.Access(mem.Access{Addr: 4 * 64}) // fill
	c.Access(mem.Access{Addr: 8 * 64}) // evict + fill
	if p.hits != 1 || p.fills != 3 || p.evictions != 1 {
		t.Errorf("hooks: hits=%d fills=%d evictions=%d", p.hits, p.fills, p.evictions)
	}
}

func TestInvalidWaysFilledBeforeVictim(t *testing.T) {
	p := &fifoPolicy{}
	c := smallCache(p)
	c.Access(mem.Access{Addr: 0})
	c.Access(mem.Access{Addr: 4 * 64})
	if p.evictions != 0 {
		t.Error("eviction before the set was full")
	}
	if c.ValidCount() != 2 {
		t.Errorf("ValidCount = %d, want 2", c.ValidCount())
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache(&fifoPolicy{})
		for _, a := range addrs {
			c.Access(mem.Access{Addr: uint64(a)})
		}
		return c.ValidCount() <= c.Sets()*c.Ways()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsInvariant(t *testing.T) {
	// Hits + misses == accesses for any access pattern.
	f := func(addrs []uint32, writes []bool) bool {
		c := smallCache(&fifoPolicy{})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(mem.Access{Addr: uint64(a), Write: w})
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Bypasses <= s.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContainsAfterAccess(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache(&fifoPolicy{})
		for _, a := range addrs {
			c.Access(mem.Access{Addr: uint64(a)})
			if !c.Contains(uint64(a)) {
				return false // just-accessed block must be resident
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEfficiencyAllLive(t *testing.T) {
	// A block hit on every access after its fill is live its whole
	// residency: efficiency approaches 1.
	c := smallCache(&fifoPolicy{})
	for i := 0; i < 1000; i++ {
		c.Access(mem.Access{Addr: 0})
	}
	c.Finish()
	if eff := c.Efficiency(); eff < 0.99 {
		t.Errorf("Efficiency = %.3f, want ~1", eff)
	}
}

func TestEfficiencyAllDead(t *testing.T) {
	// Single-touch blocks are dead their entire residency.
	c := smallCache(&fifoPolicy{})
	for i := 0; i < 1000; i++ {
		c.Access(mem.Access{Addr: uint64(i) * 64})
	}
	c.Finish()
	if eff := c.Efficiency(); eff > 0.01 {
		t.Errorf("Efficiency = %.3f, want ~0", eff)
	}
}

func TestEfficiencyMixed(t *testing.T) {
	// Half the time live: touch, wait, touch again at the midpoint of
	// residency, then churn the set so the block is evicted.
	c := New(Config{Name: "t", SizeBytes: 64 * 8, Ways: 8}, &fifoPolicy{})
	c.Access(mem.Access{Addr: 0})
	for i := 1; i <= 4; i++ {
		c.Access(mem.Access{Addr: uint64(i*8) * 64})
	}
	c.Access(mem.Access{Addr: 0}) // last hit at mid-residency
	for i := 5; i <= 9; i++ {
		c.Access(mem.Access{Addr: uint64(i*8) * 64})
	}
	c.Finish()
	// The churn blocks are all dead, so check the hit block's own line:
	// live 5 of 9 resident ticks.
	best := 0.0
	for _, row := range c.LineEfficiencies() {
		for _, e := range row {
			if e > best {
				best = e
			}
		}
	}
	if best <= 0.4 || best >= 0.7 {
		t.Errorf("best line efficiency = %.3f, want ~5/9", best)
	}
}

func TestLineEfficienciesShape(t *testing.T) {
	c := smallCache(&fifoPolicy{})
	c.Access(mem.Access{Addr: 0})
	c.Finish()
	m := c.LineEfficiencies()
	if len(m) != c.Sets() || len(m[0]) != c.Ways() {
		t.Errorf("map shape %dx%d, want %dx%d", len(m), len(m[0]), c.Sets(), c.Ways())
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 1, Writes: 2, Hits: 3, Misses: 4, Bypasses: 5, Evictions: 6, Writebacks: 7}
	b := Stats{Accesses: 10, Writes: 20, Hits: 30, Misses: 40, Bypasses: 50, Evictions: 60, Writebacks: 70}
	sum := a.Add(b)
	want := Stats{Accesses: 11, Writes: 22, Hits: 33, Misses: 44, Bypasses: 55, Evictions: 66, Writebacks: 77}
	if sum != want {
		t.Errorf("Add = %+v, want %+v", sum, want)
	}
}

func TestRates(t *testing.T) {
	s := Stats{Accesses: 10, Hits: 4, Misses: 6}
	if s.HitRate() != 0.4 || s.MissRate() != 0.6 {
		t.Errorf("rates = %v/%v", s.HitRate(), s.MissRate())
	}
	var zero Stats
	if zero.HitRate() != 0 || zero.MissRate() != 0 {
		t.Error("zero stats should have zero rates")
	}
}
