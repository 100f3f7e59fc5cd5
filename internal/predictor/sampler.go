package predictor

import (
	"fmt"

	"sdbp/internal/mem"
	"sdbp/internal/power"
)

// SamplerConfig parameterizes the sampling predictor. The zero value is
// not valid; start from DefaultSamplerConfig (the paper's
// configuration). The Figure 6 ablation variants are registry presets
// (see exp.AblationVariantNames).
type SamplerConfig struct {
	// UseSampler enables the decoupled sampler tag array. When false
	// the predictor degenerates to a PC-only reftrace-style predictor
	// that keeps a signature per LLC block and trains on every access
	// and eviction ("DBRB alone" in Figure 6).
	UseSampler bool
	// SamplerSets is the number of sampler sets (32 in the paper).
	SamplerSets int
	// SamplerAssoc is the sampler's associativity. The paper finds 12
	// ways superior to matching the LLC's 16.
	SamplerAssoc int
	// Tables is the number of skewed prediction tables (3 in the
	// paper; 1 selects a single-table predictor).
	Tables int
	// TableEntries is the number of 2-bit counters per table (4,096 in
	// the paper for the skewed organization; the Figure 6 single-table
	// variant uses 16,384, i.e. each skewed table is one quarter of the
	// single table's size).
	TableEntries int
	// Threshold is the confidence sum at or above which a block is
	// predicted dead (8 of a maximum 9 in the paper; 3 of a maximum 3
	// for a single table).
	Threshold int
}

// DefaultSamplerConfig is the paper's configuration: a 32-set, 12-way
// sampler over three skewed 4,096-entry tables with threshold 8.
func DefaultSamplerConfig() SamplerConfig {
	return SamplerConfig{
		UseSampler:   true,
		SamplerSets:  32,
		SamplerAssoc: 12,
		Tables:       3,
		TableEntries: 4096,
		Threshold:    8,
	}
}

// Sampler is the paper's sampling dead block predictor: a small,
// decoupled, LRU-managed partial-tag array sampling a fixed subset of
// LLC sets, feeding a skewed bank of saturating-counter tables indexed
// by a hash of the last PC to touch a block.
type Sampler struct {
	cfg SamplerConfig

	// table holds cfg.Tables banks of 2-bit counters flattened into one
	// contiguous slice (bank t occupies [t*TableEntries, (t+1)*TableEntries))
	// so the per-prediction loop walks one allocation.
	table   []uint8
	salts   []uint64
	entries []sEntry // SamplerSets*SamplerAssoc packed ways (see arena.go)

	llcSets    int
	llcSetBits uint
	interval   int // LLC sets per sampler set (llcSets/SamplerSets)

	// interval is always a power of two (both set counts are), so the
	// per-access sampled-set test is a mask and a shift.
	intervalMask  uint32
	intervalShift uint

	// Per-LLC-block signatures, used only when UseSampler is false
	// (the predictor then trains directly from the LLC like reftrace).
	blockSig []uint32
	ways     int

	// Training event counters: the paper's power argument rests on the
	// sampler updating on <2% of LLC accesses.
	accesses uint64
	updates  uint64

	// TrainHook, when set, observes every training event (tests and
	// diagnostics); it must not mutate the predictor.
	TrainHook func(sig uint32, dead bool)
}

// SignatureOf exposes the PC-to-signature mapping for tests and
// diagnostics.
func SignatureOf(pc uint64) uint32 { return pcSignature(pc) }

// NewSampler builds a sampling predictor. It panics on an invalid
// configuration (geometry errors are programming mistakes).
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Tables < 1 || cfg.TableEntries < 2 || !mem.IsPow2(cfg.TableEntries) {
		panic(fmt.Sprintf("predictor: invalid sampler tables %d x %d", cfg.Tables, cfg.TableEntries))
	}
	if cfg.UseSampler && (cfg.SamplerSets < 1 || cfg.SamplerAssoc < 1 || !mem.IsPow2(cfg.SamplerSets)) {
		panic(fmt.Sprintf("predictor: invalid sampler geometry %d sets x %d ways", cfg.SamplerSets, cfg.SamplerAssoc))
	}
	s := &Sampler{cfg: cfg}
	s.salts = make([]uint64, cfg.Tables)
	for i := range s.salts {
		s.salts[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
	}
	return s
}

// Name implements Predictor.
func (s *Sampler) Name() string { return "Sampler" }

// Config returns the predictor's configuration.
func (s *Sampler) Config() SamplerConfig { return s.cfg }

// Reset implements Predictor.
func (s *Sampler) Reset(sets, ways int) {
	s.llcSets = sets
	s.llcSetBits = uint(mem.Log2(sets))
	s.ways = ways
	s.table = make([]uint8, s.cfg.Tables*s.cfg.TableEntries)
	if s.cfg.UseSampler {
		s.interval = sets / s.cfg.SamplerSets
		if s.interval < 1 {
			s.interval = 1
		}
		s.intervalMask = uint32(s.interval - 1)
		s.intervalShift = uint(mem.Log2(s.interval))
		s.entries = newSamplerArena(s.cfg.SamplerSets, s.cfg.SamplerAssoc)
		s.blockSig = nil
	} else {
		s.blockSig = make([]uint32, sets*ways)
	}
	s.accesses = 0
	s.updates = 0
}

// tableIndex computes table t's index for a signature: each table uses a
// different multiplicative hash (the skewed organization).
func (s *Sampler) tableIndex(t int, sig uint32) int {
	return int(mem.Mix64(uint64(sig)^s.salts[t]) & uint64(s.cfg.TableEntries-1))
}

// confidence sums the counters the signature maps to.
func (s *Sampler) confidence(sig uint32) int {
	c := 0
	for t := 0; t < s.cfg.Tables; t++ {
		c += int(s.table[t*s.cfg.TableEntries+s.tableIndex(t, sig)])
	}
	return c
}

// predict reports whether a signature's confidence meets the threshold.
func (s *Sampler) predict(sig uint32) bool {
	return s.confidence(sig) >= s.cfg.Threshold
}

// train adjusts the counters for a signature: dead increments toward
// the threshold, live decrements toward zero. Counters saturate at 2
// bits.
func (s *Sampler) train(sig uint32, dead bool) {
	if s.TrainHook != nil {
		s.TrainHook(sig, dead)
	}
	for t := 0; t < s.cfg.Tables; t++ {
		i := t*s.cfg.TableEntries + s.tableIndex(t, sig)
		if dead {
			if s.table[i] < 3 {
				s.table[i]++
			}
		} else if s.table[i] > 0 {
			s.table[i]--
		}
	}
}

// sampled reports whether an LLC set is tracked by the sampler, and
// which sampler set tracks it.
func (s *Sampler) sampled(set uint32) (int, bool) {
	if set&s.intervalMask != 0 {
		return 0, false
	}
	ss := int(set >> s.intervalShift)
	if ss >= s.cfg.SamplerSets {
		return 0, false
	}
	return ss, true
}

// partialTag derives the 15-bit partial tag stored in the sampler. The
// full tag is hashed down rather than truncated: truncation relies on
// the entropy real addresses carry in their low tag bits, which the
// suite's synthetic region layout concentrates in high bits instead.
// Hashing keeps the paper's property that incorrect matches are
// vanishingly rare.
func partialTag(addr uint64, llcSets int) uint32 {
	return uint32(mem.Mix64(mem.BlockNumber(addr)>>uint(mem.Log2(llcSets)))) & sigMask
}

// partialTagShifted is partialTag with the set-bit count precomputed
// (the per-access path avoids re-deriving Log2(llcSets)).
func partialTagShifted(addr uint64, llcSetBits uint) uint32 {
	return uint32(mem.Mix64(mem.BlockNumber(addr)>>llcSetBits)) & sigMask
}

// OnAccess implements Predictor: on an access to a sampled LLC set, the
// sampler set is searched and trained. A sampler hit trains the entry's
// previous signature as live and replaces it with the current PC's
// signature; a sampler miss victimizes an invalid entry, else the LRU
// entry, training the victim's signature as dead. Tags never bypass the
// sampler.
func (s *Sampler) OnAccess(set uint32, a mem.Access) {
	s.accesses++
	if !s.cfg.UseSampler {
		return
	}
	ss, ok := s.sampled(set)
	if !ok {
		return
	}
	s.updates++
	tag := partialTagShifted(a.Addr, s.llcSetBits)
	sig := pcSignature(a.PC)
	base := ss * s.cfg.SamplerAssoc
	ents := s.entries[base : base+s.cfg.SamplerAssoc : base+s.cfg.SamplerAssoc]

	// Search, noting the first invalid entry so a miss does not rescan.
	invalid := -1
	for w := range ents {
		e := ents[w]
		if !e.valid() {
			if invalid < 0 {
				invalid = w
			}
			continue
		}
		if e.tag() == tag {
			// The previous signature was not the last touch.
			s.train(e.sig(), false)
			ents[w].update(sig, s.predict(sig))
			promoteEntry(ents, w)
			return
		}
	}

	// Miss: fill an invalid entry, else replace the LRU entry (the
	// paper's sampler is plain LRU; its reduced associativity is what
	// evicts likely-dead tags sooner).
	victim := invalid
	if victim < 0 {
		lru := uint8(s.cfg.SamplerAssoc - 1)
		for w := range ents {
			if ents[w].lru() == lru {
				victim = w
				break
			}
		}
	}
	if ents[victim].valid() {
		// The victim's signature was the last touch of its tag.
		s.train(ents[victim].sig(), true)
	}
	ents[victim].fill(tag, sig, s.predict(sig))
	promoteEntry(ents, victim)
}

// PredictArriving implements Predictor: prediction is a pure function of
// the accessing PC.
func (s *Sampler) PredictArriving(_ uint32, a mem.Access) bool {
	return s.predict(pcSignature(a.PC))
}

// OnHit implements Predictor: when there is no sampler, the predictor
// trains directly from the LLC like reftrace; either way the block's
// dead bit refreshes from the current PC.
func (s *Sampler) OnHit(set uint32, way int, a mem.Access) bool {
	sig := pcSignature(a.PC)
	if !s.cfg.UseSampler {
		i := int(set)*s.ways + way
		s.train(s.blockSig[i], false)
		s.blockSig[i] = sig
		s.updates++
	}
	return s.predict(sig)
}

// OnFill implements Predictor.
func (s *Sampler) OnFill(set uint32, way int, a mem.Access) bool {
	sig := pcSignature(a.PC)
	if !s.cfg.UseSampler {
		s.blockSig[int(set)*s.ways+way] = sig
		s.updates++
	}
	return s.predict(sig)
}

// OnEvict implements Predictor: the decoupled sampler learns only from
// its own evictions, so LLC evictions train nothing; the no-sampler
// variant trains its stored per-block signature as dead.
func (s *Sampler) OnEvict(set uint32, way int) {
	if s.cfg.UseSampler {
		return
	}
	s.train(s.blockSig[int(set)*s.ways+way], true)
	s.updates++
}

// ConfidenceOf returns the current confidence sum for a PC's signature
// (tests and diagnostics; prediction is confidence >= threshold).
func (s *Sampler) ConfidenceOf(pc uint64) int {
	return s.confidence(pcSignature(pc))
}

// Threshold returns the configured dead-prediction threshold.
func (s *Sampler) Threshold() int { return s.cfg.Threshold }

// UpdateFraction returns the fraction of LLC accesses that updated the
// predictor — the quantity behind the paper's "<1.6% of LLC accesses"
// power argument.
func (s *Sampler) UpdateFraction() float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.updates) / float64(s.accesses)
}

// Storage implements Predictor, reproducing the sampler rows of Table I:
// three 1KB tables (3KB), a 6.75KB sampler (32 sets x 12 entries x 36
// bits: 15-bit tag, 15-bit partial PC, prediction bit, valid bit, 4 LRU
// bits), and one dead bit per LLC block.
func (s *Sampler) Storage() []power.Structure {
	var out []power.Structure
	out = append(out, power.Structure{
		Name: "prediction tables", Kind: power.TaglessRAM,
		Entries: s.cfg.Tables * s.cfg.TableEntries, BitsPerEntry: 2, Banks: s.cfg.Tables,
	})
	if s.cfg.UseSampler {
		out = append(out, power.Structure{
			Name: "sampler", Kind: power.TagArray,
			Entries:      s.cfg.SamplerSets * s.cfg.SamplerAssoc,
			BitsPerEntry: sigBits + sigBits + 1 + 1 + 4,
		})
		out = append(out, power.Structure{
			Name: "dead bits", Kind: power.CacheMetadata,
			Entries: s.llcSets * s.ways, BitsPerEntry: 1,
		})
	} else {
		out = append(out, power.Structure{
			Name: "block signatures + dead bits", Kind: power.CacheMetadata,
			Entries: s.llcSets * s.ways, BitsPerEntry: sigBits + 1,
		})
	}
	return out
}
