// Package ship implements SHiP — Signature-based Hit Predictor
// replacement (Wu et al., MICRO 2011) — over the repo's SRRIP backbone.
// Every fill records a hashed PC signature; a signature history counter
// table (SHCT) learns — from every set by default, or from a sampled
// subset under the reduced-overhead SHiP-S variant — whether blocks
// inserted by that signature are ever re-referenced. Fills whose
// signature has no recorded reuse insert at the distant RRPV (next in
// line for eviction); everything else inserts exactly as SRRIP does.
//
// The policy degenerates to SRRIP when training is off and the SHCT is
// initialized saturated (ship(train=off,init=7)): every insertion then
// takes the SRRIP long re-reference value, hits promote identically,
// and victim selection shares the aging loop — the differential harness
// pins that identity byte-for-byte.
package ship

import (
	"fmt"

	"sdbp/internal/cache"
	"sdbp/internal/mem"
)

// rrpvMax is the distant re-reference value of the 2-bit RRPV backbone
// (matching the SRRIP policy this package must degenerate to).
const rrpvMax = 3

// TrainMode selects which sets may update the SHCT.
type TrainMode int

const (
	// TrainSampled trains from a sampled subset of sets — the paper's
	// reduced-overhead SHiP-S variant.
	TrainSampled TrainMode = iota
	// TrainAll trains from every set (the paper's base SHiP-PC
	// configuration; default).
	TrainAll
	// TrainOff freezes the SHCT at its initial value.
	TrainOff
)

// String returns the canonical expression token for the mode.
func (m TrainMode) String() string {
	switch m {
	case TrainAll:
		return "all"
	case TrainOff:
		return "off"
	}
	return "sampled"
}

// Config parameterizes SHiP. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// SigBits is the signature width; the SHCT holds 1<<SigBits
	// counters (14 bits / 16K entries in the paper).
	SigBits int
	// CounterMax is the SHCT counter saturation value (7, i.e. 3-bit
	// counters, in the paper).
	CounterMax int
	// Init is the value every SHCT counter starts at. 0 (the paper's
	// choice) treats unseen signatures as no-reuse; CounterMax starts
	// every signature trusted, which with TrainOff is exactly SRRIP.
	Init int
	// Train selects which sets update the SHCT.
	Train TrainMode
	// SampledSets is how many sets train the SHCT under TrainSampled
	// (power of two; clamped to the cache's set count).
	SampledSets int
}

// DefaultConfig is the paper's base SHiP-PC configuration: a 16K-entry
// SHCT of 3-bit counters starting cold, trained from every set.
// ship(train=sampled) selects the reduced-overhead SHiP-S variant.
func DefaultConfig() Config {
	return Config{SigBits: 14, CounterMax: 7, Init: 0, Train: TrainAll, SampledSets: 64}
}

// Policy implements cache.Policy. See the package comment for the
// insertion and training flow.
type Policy struct {
	cache.Base
	cfg     Config
	ways    int
	rrpv    []uint8
	sig     []uint16 // fill signature per line
	reused  []bool   // line has hit since fill
	shct    []uint8
	sigMask uint32

	// Sampled-set test: set is a trainer iff set&intervalMask == 0
	// (intervalMask 0 trains every set).
	intervalMask uint32
}

// New builds a SHiP policy. It panics on an invalid configuration (the
// registry validates user expressions first).
func New(cfg Config) *Policy {
	if cfg.SigBits < 1 || cfg.SigBits > 24 {
		panic(fmt.Sprintf("ship: invalid signature width %d", cfg.SigBits))
	}
	if cfg.CounterMax < 1 || cfg.CounterMax > 255 {
		panic(fmt.Sprintf("ship: invalid counter max %d", cfg.CounterMax))
	}
	if cfg.Init < 0 || cfg.Init > cfg.CounterMax {
		panic(fmt.Sprintf("ship: initial counter %d outside [0, %d]", cfg.Init, cfg.CounterMax))
	}
	if cfg.SampledSets < 1 || !mem.IsPow2(cfg.SampledSets) {
		panic(fmt.Sprintf("ship: invalid sampled-set count %d", cfg.SampledSets))
	}
	return &Policy{cfg: cfg, sigMask: 1<<uint(cfg.SigBits) - 1}
}

// Name implements cache.Policy.
func (p *Policy) Name() string { return "SHiP" }

// Config returns the policy's configuration.
func (p *Policy) Config() Config { return p.cfg }

// Reset implements cache.Policy.
func (p *Policy) Reset(sets, ways int) {
	p.ways = ways
	p.rrpv = make([]uint8, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
	p.sig = make([]uint16, sets*ways)
	p.reused = make([]bool, sets*ways)
	p.shct = make([]uint8, 1<<uint(p.cfg.SigBits))
	for i := range p.shct {
		p.shct[i] = uint8(p.cfg.Init)
	}
	interval := sets / p.cfg.SampledSets
	if interval < 1 {
		interval = 1
	}
	p.intervalMask = uint32(interval - 1)
}

func (p *Policy) idx(set uint32, way int) int { return int(set)*p.ways + way }

func (p *Policy) signature(pc uint64) uint16 {
	return uint16(uint32(mem.Mix64(pc)) & p.sigMask)
}

// trains reports whether evictions and first hits in this set update
// the SHCT.
func (p *Policy) trains(set uint32) bool {
	switch p.cfg.Train {
	case TrainAll:
		return true
	case TrainOff:
		return false
	}
	return set&p.intervalMask == 0
}

// OnHit implements cache.Policy: promotion to near re-reference exactly
// as SRRIP; the first hit to a line since its fill credits its fill
// signature in the SHCT.
func (p *Policy) OnHit(set uint32, way int, a mem.Access) {
	i := p.idx(set, way)
	p.rrpv[i] = 0
	if p.reused[i] {
		return
	}
	p.reused[i] = true
	if p.trains(set) {
		s := p.sig[i]
		if p.shct[s] < uint8(p.cfg.CounterMax) {
			p.shct[s]++
		}
	}
}

// OnFill implements cache.Policy: a signature with zero recorded reuse
// inserts distant (first in line for eviction); everything else takes
// SRRIP's long re-reference insertion.
func (p *Policy) OnFill(set uint32, way int, a mem.Access) {
	i := p.idx(set, way)
	insert := uint8(rrpvMax - 1)
	s := p.signature(a.PC)
	p.sig[i] = s
	p.reused[i] = false
	if p.shct[s] == 0 {
		insert = rrpvMax
	}
	p.rrpv[i] = insert
}

// OnEvict implements cache.Policy: a line that dies without a single
// re-reference votes its fill signature down.
func (p *Policy) OnEvict(set uint32, way int) {
	i := p.idx(set, way)
	if !p.reused[i] && p.trains(set) {
		s := p.sig[i]
		if p.shct[s] > 0 {
			p.shct[s]--
		}
	}
	p.reused[i] = false
}

// Victim implements cache.Policy: SRRIP's aging loop — the first way
// predicted distant, aging the set until one exists.
func (p *Policy) Victim(set uint32, _ mem.Access) int {
	base := int(set) * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] == rrpvMax {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

// Rank implements policy.Ranked: larger RRPV means closer to eviction.
func (p *Policy) Rank(set uint32, way int) int {
	return int(p.rrpv[p.idx(set, way)])
}

// SHCT exposes a signature's counter for tests.
func (p *Policy) SHCT(sig uint16) uint8 { return p.shct[sig] }

// SignatureOf exposes the PC-to-signature mapping for tests.
func (p *Policy) SignatureOf(pc uint64) uint16 { return p.signature(pc) }
