// Package dbrb implements the paper's dead-block replacement and bypass
// policy (Section V): a cache management policy that victimizes
// predicted-dead blocks before falling back on a default policy (LRU or
// random), and bypasses blocks predicted dead on arrival.
package dbrb

import (
	"sdbp/internal/cache"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
)

// Policy drives a default replacement policy with a dead block
// predictor. It implements cache.Policy.
type Policy struct {
	base cache.Policy
	pred predictor.Predictor

	ways int
	// flags is the per-line metadata arena, one byte per LLC line:
	// fDead is the dead bit (the 1 bit/line of cache metadata). One flat
	// byte array keeps the victim scan to one load per way.
	flags []uint8

	acc Accuracy

	// attr is the per-PC death-attribution table (see attribution.go);
	// nil unless EnableAttribution was called before Reset. Every hook
	// below guards on the nil so the disabled access path pays one
	// predictable branch and allocates nothing.
	attr        *Attribution
	attrEnabled bool
}

// fDead is the dead bit in Policy.flags.
const fDead uint8 = 1

// Accuracy tallies the prediction quality measures of the paper's
// Figure 9. Coverage is positive predictions over all predictions (one
// prediction per LLC access); a false positive is recorded when a block
// standing predicted dead is referenced again while still cached.
type Accuracy struct {
	// Predictions is the number of predictions made (one per access).
	Predictions uint64
	// Positives is the number of dead predictions.
	Positives uint64
	// FalsePositives counts hits to blocks whose dead bit was set.
	FalsePositives uint64
}

// Coverage returns Positives/Predictions.
func (a Accuracy) Coverage() float64 {
	if a.Predictions == 0 {
		return 0
	}
	return float64(a.Positives) / float64(a.Predictions)
}

// FalsePositiveRate returns FalsePositives/Predictions — the fraction of
// cache accesses on which a wrong dead prediction stood, the paper's
// Figure 9 metric.
func (a Accuracy) FalsePositiveRate() float64 {
	if a.Predictions == 0 {
		return 0
	}
	return float64(a.FalsePositives) / float64(a.Predictions)
}

// New wraps base with predictor-driven replacement and bypass. The
// resulting policy's name is "<pred> DBRB/<base>".
func New(base cache.Policy, pred predictor.Predictor) *Policy {
	return &Policy{base: base, pred: pred}
}

// Name implements cache.Policy.
func (p *Policy) Name() string {
	return p.pred.Name() + " DBRB/" + p.base.Name()
}

// Base returns the default policy beneath the optimization.
func (p *Policy) Base() cache.Policy { return p.base }

// Predictor returns the driving predictor.
func (p *Policy) Predictor() predictor.Predictor { return p.pred }

// Accuracy returns the prediction-quality tallies so far.
func (p *Policy) Accuracy() Accuracy { return p.acc }

// Reset implements cache.Policy.
func (p *Policy) Reset(sets, ways int) {
	p.ways = ways
	p.flags = make([]uint8, sets*ways)
	p.base.Reset(sets, ways)
	p.pred.Reset(sets, ways)
	p.acc = Accuracy{}
	p.attr = nil
	if p.attrEnabled {
		p.attr = newAttribution(sets, ways)
	}
}

func (p *Policy) idx(set uint32, way int) int { return int(set)*p.ways + way }

// OnAccess implements cache.Policy: the predictor observes every
// access (the sampling predictor maintains its sampler here).
func (p *Policy) OnAccess(set uint32, a mem.Access) {
	p.base.OnAccess(set, a)
	p.pred.OnAccess(set, a)
}

// Bypass implements cache.Policy: a block predicted dead on arrival is
// not placed.
func (p *Policy) Bypass(set uint32, a mem.Access) bool {
	dead := p.pred.PredictArriving(set, a)
	p.acc.Predictions++
	if dead {
		p.acc.Positives++
	}
	if p.attr != nil {
		p.attr.predicted(a.PC, dead)
	}
	return dead
}

// Aging is implemented by predictors whose predictions mature with
// idle time rather than only at accesses (the access interval
// predictor): DeadNow re-evaluates a resident block's deadness at
// victim-selection time.
type Aging interface {
	DeadNow(set uint32, way int) bool
}

// Victim implements cache.Policy: a predicted-dead block is evicted
// first — the one the base policy ranks closest to eviction when several
// are dead — falling back on the base policy's victim otherwise.
func (p *Policy) Victim(set uint32, a mem.Access) int {
	ranked, _ := p.base.(policy.Ranked)
	aging, _ := p.pred.(Aging)
	victim, bestRank := -1, -1
	for w := 0; w < p.ways; w++ {
		if p.flags[p.idx(set, w)]&fDead == 0 && (aging == nil || !aging.DeadNow(set, w)) {
			continue
		}
		rank := 0
		if ranked != nil {
			rank = ranked.Rank(set, w)
		}
		if rank > bestRank {
			victim, bestRank = w, rank
		}
	}
	if victim >= 0 {
		return victim
	}
	return p.base.Victim(set, a)
}

// OnHit implements cache.Policy: a hit on a block standing predicted
// dead is a false positive; the block's dead bit then refreshes from the
// predictor.
func (p *Policy) OnHit(set uint32, way int, a mem.Access) {
	i := p.idx(set, way)
	if p.flags[i]&fDead != 0 {
		p.acc.FalsePositives++
		if p.attr != nil {
			p.attr.falsePositive(p.attr.deadPC[i])
		}
	}
	d := p.pred.OnHit(set, way, a)
	p.acc.Predictions++
	if d {
		p.acc.Positives++
		p.flags[i] = fDead
	} else {
		p.flags[i] = 0
	}
	if p.attr != nil {
		p.attr.predicted(a.PC, d)
		if d {
			p.attr.deadPC[i] = a.PC
		}
	}
	p.base.OnHit(set, way, a)
}

// OnFill implements cache.Policy: the predictor sets the filled
// block's dead bit.
func (p *Policy) OnFill(set uint32, way int, a mem.Access) {
	i := p.idx(set, way)
	dead := p.pred.OnFill(set, way, a)
	if dead {
		p.flags[i] = fDead
	} else {
		p.flags[i] = 0
	}
	if p.attr != nil {
		p.attr.fillPC[i] = a.PC
		if dead {
			p.attr.deadPC[i] = a.PC
		}
	}
	p.base.OnFill(set, way, a)
}

// OnEvict implements cache.Policy: the predictor learns from every
// eviction, including those it caused itself (Section V-B finds this
// feedback mildly beneficial).
func (p *Policy) OnEvict(set uint32, way int) {
	i := p.idx(set, way)
	p.pred.OnEvict(set, way)
	p.flags[i] = 0
	if p.attr != nil {
		p.attr.evicted(p.attr.fillPC[i])
		p.attr.fillPC[i] = 0
	}
	p.base.OnEvict(set, way)
}

// PrefetchVictim implements cache.PrefetchPlacer: prefetches may only
// displace predicted-dead blocks (the base policy's rank breaking
// ties), never live ones.
func (p *Policy) PrefetchVictim(set uint32) (int, bool) {
	ranked, _ := p.base.(policy.Ranked)
	victim, bestRank := -1, -1
	for w := 0; w < p.ways; w++ {
		if p.flags[p.idx(set, w)]&fDead == 0 {
			continue
		}
		rank := 0
		if ranked != nil {
			rank = ranked.Rank(set, w)
		}
		if rank > bestRank {
			victim, bestRank = w, rank
		}
	}
	return victim, victim >= 0
}

// IsDead reports whether the block at (set, way) currently stands
// predicted dead. Applications that filter on deadness at eviction
// time (e.g. a dead-block-filtered victim cache) read it from an
// OnEvict wrapper before this policy clears the bit.
func (p *Policy) IsDead(set uint32, way int) bool {
	return p.flags[p.idx(set, way)]&fDead != 0
}

// DeadCount returns how many blocks currently stand predicted dead (for
// tests and diagnostics).
func (p *Policy) DeadCount() int {
	n := 0
	for _, f := range p.flags {
		if f&fDead != 0 {
			n++
		}
	}
	return n
}
