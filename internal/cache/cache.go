// Package cache implements the set-associative cache model underlying
// every experiment in the reproduction: lookup, fill, eviction,
// write-back/write-allocate semantics, pluggable replacement policies,
// and the live/dead-time accounting behind the paper's cache-efficiency
// results (Figure 1 and the "blocks are dead 86% of the time" claim).
package cache

import (
	"fmt"

	"sdbp/internal/mem"
)

// Config describes a cache's geometry.
type Config struct {
	// Name labels the cache in reports ("L1D", "LLC", ...).
	Name string
	// SizeBytes is the total data capacity. It must be a power-of-two
	// multiple of Ways*mem.BlockSize.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// SkipEfficiency disables live/dead-time accounting for this cache.
	// The hierarchy sets it for the L1 and L2, whose efficiency is never
	// reported, so their hit path touches no per-line metadata at all.
	SkipEfficiency bool
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * mem.BlockSize) }

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: size and ways must be positive", c.Name)
	}
	if c.SizeBytes%(c.Ways*mem.BlockSize) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*blocksize", c.Name, c.SizeBytes)
	}
	if !mem.IsPow2(c.Sets()) {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, c.Sets())
	}
	return nil
}

// line is one cache block's efficiency bookkeeping, in units of the
// cache's access clock. It exists only when the cache tracks
// efficiency; all other per-block state lives in the key word.
type line struct {
	filledAt  uint64
	lastHitAt uint64
}

// lineKey packs a line's tag and valid bit into the single word the
// lookup loop scans: tag<<1|1 when valid, 0 when invalid. Block
// numbers are 58 bits (64 minus mem.BlockBits), so the shifted tag
// tops out at bit 59, leaving the top bits free for the dirty and
// prefetched flags — hits and evictions then need no second load.
func lineKey(tag uint64) uint64 { return tag<<1 | 1 }

const (
	keyDirty      = 1 << 63 // block has been written since fill
	keyPrefetched = 1 << 62 // placed by a prefetch and not yet demanded
	keyFlags      = keyDirty | keyPrefetched
)

// Result reports what a single access did.
type Result struct {
	// Hit is true when the block was present.
	Hit bool
	// Bypassed is true when the miss was not filled (policy bypass).
	Bypassed bool
	// Evicted is true when a valid block was evicted to make room.
	Evicted bool
	// EvictedDirty is true when the evicted block was dirty (a
	// write-back).
	EvictedDirty bool
	// EvictedAddr is the evicted block's address; valid when Evicted.
	EvictedAddr uint64
}

// Cache is a set-associative cache with a pluggable management policy.
type Cache struct {
	cfg     Config
	sets    int
	setBits int
	ways    int
	keys    []uint64 // sets*ways lookup keys (see lineKey), row-major by set
	lines   []line   // sets*ways efficiency clocks; nil when not tracked
	policy  Policy

	// setMask and tagShift are precomputed from the geometry so the
	// per-access path extracts set and tag with one mask and one shift
	// of the block number instead of re-deriving them.
	setMask  uint64
	tagShift uint

	// lru and lruInsert are set when the policy is exactly the plain
	// LRU (see PlainLRU); Access then replaces every policy interface
	// call with direct calls on the recency state.
	lru       *Recency
	lruInsert *bool

	clock uint64 // accesses so far; drives efficiency accounting
	stats Stats
	eff   efficiency

	// memoBN/memoIdx memoize the line the last AccessPrivate call left
	// resident at MRU (block number and flat key index). Streams re-hit
	// the same line in bursts, and for such a repeat the whole lookup
	// and promotion are provably no-ops, so AccessPrivate short-circuits
	// them. Any other mutation path (Access, InsertPrefetch) clears the
	// memo. memoBN is memoNone when no line is memoized.
	memoBN  uint64
	memoIdx int32
}

// memoNone is an impossible block number (addresses are < 2^63).
const memoNone = ^uint64(0)

// New builds a cache. It panics on an invalid configuration because
// geometry errors are programming mistakes, not runtime conditions.
func New(cfg Config, p Policy) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:      cfg,
		sets:     cfg.Sets(),
		setBits:  mem.Log2(cfg.Sets()),
		ways:     cfg.Ways,
		keys:     make([]uint64, cfg.Sets()*cfg.Ways),
		policy:   p,
		setMask:  uint64(cfg.Sets() - 1),
		tagShift: uint(mem.Log2(cfg.Sets())),
		memoBN:   memoNone,
	}
	p.Reset(c.sets, c.ways)
	if !cfg.SkipEfficiency {
		c.lines = make([]line, cfg.Sets()*cfg.Ways)
		c.eff.reset(c.sets, c.ways)
	}
	if pl, ok := p.(PlainLRU); ok {
		if rec, ins, self := pl.PlainLRU(); self == Policy(p) {
			c.lru, c.lruInsert = rec, ins
		}
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Policy returns the management policy.
func (c *Cache) Policy() Policy { return c.policy }

// Stats returns a snapshot of the access statistics.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) line(set uint32, way int) *line {
	return &c.lines[int(set)*c.ways+way]
}

// setKeys returns one set's ways as a full-capacity subslice, so the
// per-access loops index with a single bounds check.
func (c *Cache) setKeys(set uint32) []uint64 {
	base := int(set) * c.ways
	return c.keys[base : base+c.ways : base+c.ways]
}

// Access performs one reference. On a miss the block is filled
// (write-allocate) unless the policy bypasses it; dirty victims report a
// write-back address.
func (c *Cache) Access(a mem.Access) Result {
	c.memoBN = memoNone
	c.clock++
	c.stats.Accesses++
	if a.Write {
		c.stats.Writes++
	}
	bn := a.Addr >> mem.BlockBits
	set := uint32(bn & c.setMask)
	tag := bn >> c.tagShift

	// The plain-LRU fast path (c.lru != nil) substitutes direct calls on
	// the recency state for each policy hook: no access or evict hooks,
	// never bypasses, hits and fills promote, victims come off the stack.
	if c.lru == nil {
		c.policy.OnAccess(set, a)
	}

	// Lookup over the packed key array (one word per way), noting the
	// first invalid way so a non-bypassed miss does not rescan the set.
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
			if c.lines != nil {
				c.lines[int(set)*c.ways+w].lastHitAt = c.clock
			}
			if c.lru != nil {
				c.lru.Promote(set, w)
			} else {
				c.policy.OnHit(set, w, a)
			}
			return Result{Hit: true}
		}
		if k == 0 && invalid < 0 {
			invalid = w
		}
	}

	// Miss.
	c.stats.Misses++
	if c.lru == nil && c.policy.Bypass(set, a) {
		c.stats.Bypasses++
		return Result{Bypassed: true}
	}

	// Prefer an invalid way.
	victim := invalid
	res := Result{}
	if victim < 0 {
		if c.lru != nil {
			victim = c.lru.Victim(set)
		} else {
			victim = c.policy.Victim(set, a)
			if victim < 0 || victim >= c.ways {
				panic(fmt.Sprintf("cache %q: policy %s returned victim way %d of %d",
					c.cfg.Name, c.policy.Name(), victim, c.ways))
			}
		}
		k := keys[victim]
		c.stats.Evictions++
		res.Evicted = true
		res.EvictedAddr = c.blockAddr(set, (k&^keyFlags)>>1)
		if k&keyDirty != 0 {
			res.EvictedDirty = true
			c.stats.Writebacks++
		}
		if c.lines != nil {
			c.eff.account(set, victim, &c.lines[int(set)*c.ways+victim], c.clock)
		}
		if c.lru == nil {
			c.policy.OnEvict(set, victim)
		}
	}

	nk := want
	if a.Write {
		nk |= keyDirty
	}
	keys[victim] = nk
	if c.lines != nil {
		ln := &c.lines[int(set)*c.ways+victim]
		ln.filledAt = c.clock
		ln.lastHitAt = c.clock
	}
	if c.lru != nil {
		if *c.lruInsert {
			c.lru.Demote(set, victim)
		} else {
			c.lru.Promote(set, victim)
		}
	} else {
		c.policy.OnFill(set, victim, a)
	}
	return res
}

// PrefetchPlacer is implemented by policies that can name a way a
// prefetch may overwrite. The dead-block replacement policy names a
// predicted-dead way (or refuses), so prefetches never displace live
// data — the Lai et al. prefetch-into-dead-blocks application.
type PrefetchPlacer interface {
	PrefetchVictim(set uint32) (way int, ok bool)
}

// InsertPrefetch places the block for a without counting a demand
// access. Invalid ways are used first; otherwise the policy must
// implement PrefetchPlacer and name a victim, or the prefetch is
// dropped. It reports whether the block was placed (false also when it
// was already resident).
func (c *Cache) InsertPrefetch(a mem.Access) bool {
	c.memoBN = memoNone
	bn := a.Addr >> mem.BlockBits
	set := uint32(bn & c.setMask)
	tag := bn >> c.tagShift
	keys := c.setKeys(set)
	want := lineKey(tag)
	victim := -1
	for w, k := range keys {
		if k&^keyFlags == want {
			return false // already resident
		}
		if k == 0 && victim < 0 {
			victim = w
		}
	}
	if victim < 0 {
		placer, ok := c.policy.(PrefetchPlacer)
		if !ok {
			return false
		}
		v, ok := placer.PrefetchVictim(set)
		if !ok {
			return false
		}
		victim = v
		c.stats.Evictions++
		if keys[victim]&keyDirty != 0 {
			c.stats.Writebacks++
		}
		c.clock++ // prefetch fills advance residency time like accesses
		if c.lines != nil {
			c.eff.account(set, victim, c.line(set, victim), c.clock)
		}
		c.policy.OnEvict(set, victim)
	}
	keys[victim] = want | keyPrefetched
	if c.lines != nil {
		ln := c.line(set, victim)
		ln.filledAt = c.clock
		ln.lastHitAt = c.clock
	}
	c.stats.Prefetches++
	c.policy.OnFill(set, victim, a)
	return true
}

// blockAddr reconstructs a block address from a set index and tag.
func (c *Cache) blockAddr(set uint32, tag uint64) uint64 {
	return (tag<<uint(c.setBits) | uint64(set)) << mem.BlockBits
}

// Contains reports whether the block holding addr is present. It does
// not perturb policy or statistics state; tests and the hierarchy's
// inclusion checks use it.
func (c *Cache) Contains(addr uint64) bool {
	bn := addr >> mem.BlockBits
	want := lineKey(bn >> c.tagShift)
	keys := c.setKeys(uint32(bn & c.setMask))
	for _, k := range keys {
		if k&^keyFlags == want {
			return true
		}
	}
	return false
}

// ValidCount returns the number of valid lines (for occupancy tests).
func (c *Cache) ValidCount() int {
	n := 0
	for _, k := range c.keys {
		if k != 0 {
			n++
		}
	}
	return n
}

// Finish closes the efficiency accounting epoch by accounting all
// still-resident lines as if evicted now. Call it once, after the last
// access, before reading Efficiency or LineEfficiencies.
func (c *Cache) Finish() {
	if c.lines == nil {
		return
	}
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			if c.keys[s*c.ways+w] == 0 {
				continue
			}
			ln := c.line(uint32(s), w)
			c.eff.account(uint32(s), w, ln, c.clock)
			ln.filledAt = c.clock
			ln.lastHitAt = c.clock
		}
	}
}

// Efficiency returns the cache's aggregate efficiency: the fraction of
// block-resident time during which blocks were live (between fill and
// last hit). The paper reports 1-efficiency as dead time (86.2% average
// for a 2MB LRU LLC). Returns 0 when nothing was ever cached.
func (c *Cache) Efficiency() float64 {
	return c.eff.aggregate()
}

// LineEfficiencies returns a sets×ways matrix of per-line efficiency in
// [0,1] — the data behind the paper's Figure 1 greyscale maps.
func (c *Cache) LineEfficiencies() [][]float64 {
	return c.eff.perLine(c.sets, c.ways)
}

// efficiency accumulates live/total resident time per line slot.
type efficiency struct {
	live  []uint64
	total []uint64
	ways  int
}

func (e *efficiency) reset(sets, ways int) {
	e.live = make([]uint64, sets*ways)
	e.total = make([]uint64, sets*ways)
	e.ways = ways
}

func (e *efficiency) account(set uint32, way int, ln *line, now uint64) {
	i := int(set)*e.ways + way
	e.live[i] += ln.lastHitAt - ln.filledAt
	e.total[i] += now - ln.filledAt
}

func (e *efficiency) aggregate() float64 {
	var live, total uint64
	for i := range e.total {
		live += e.live[i]
		total += e.total[i]
	}
	if total == 0 {
		return 0
	}
	return float64(live) / float64(total)
}

func (e *efficiency) perLine(sets, ways int) [][]float64 {
	out := make([][]float64, sets)
	for s := 0; s < sets; s++ {
		row := make([]float64, ways)
		if e.total == nil {
			out[s] = row
			continue
		}
		for w := 0; w < ways; w++ {
			i := s*ways + w
			if e.total[i] > 0 {
				row[w] = float64(e.live[i]) / float64(e.total[i])
			}
		}
		out[s] = row
	}
	return out
}
