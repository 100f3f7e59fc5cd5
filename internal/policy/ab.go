package policy

import (
	"sdbp/internal/cache"
	"sdbp/internal/mem"
)

// Force pins an AB duel to one side, bypassing the PSEL entirely. The
// differential harness uses ForceA to prove the wrapper transparent:
// duel(...,force=a) must be byte-identical to policy A alone.
type Force int

const (
	// ForceNone lets the duel arbitrate (default).
	ForceNone Force = iota
	// ForceA pins every set to policy A.
	ForceA
	// ForceB pins every set to policy B.
	ForceB
)

// abSalt decorrelates the AB wrapper's leader placement from the duels
// inside DIP/TADIP/DRRIP and the dueling dead-block policy.
const abSalt = 0xAB5E17

// AB arbitrates two complete cache policies with DIP-style set dueling:
// a few leader sets are pinned to each side, a PSEL counter of
// configurable width tallies leader-set misses, and follower sets play
// whichever side the PSEL currently favors. Both sides observe every
// event (access, hit, fill, eviction) so either one's metadata is
// coherent with the cache's true contents whenever the duel hands it a
// decision; only the decisions — bypass and victim selection — come
// from the chosen side. This is the "improved DBP" safety net of the
// reuse-counter predictor generalized to arbitrary policy pairs.
type AB struct {
	a, b     cache.Policy
	leaders  int
	pselBits int
	force    Force

	d             duel // leader-role geometry only; PSEL is local (width varies)
	psel, pselMax int
}

// NewAB wraps policies a and b in a set duel with the given number of
// leader sets per side and PSEL width in bits.
func NewAB(a, b cache.Policy, leaders, pselBits int, force Force) *AB {
	return &AB{a: a, b: b, leaders: leaders, pselBits: pselBits, force: force}
}

// Name implements cache.Policy.
func (p *AB) Name() string { return "Duel(" + p.a.Name() + " vs " + p.b.Name() + ")" }

// A returns the duel's first side.
func (p *AB) A() cache.Policy { return p.a }

// B returns the duel's second side.
func (p *AB) B() cache.Policy { return p.b }

// Reset implements cache.Policy.
func (p *AB) Reset(sets, ways int) {
	p.a.Reset(sets, ways)
	p.b.Reset(sets, ways)
	p.d = newDuel(sets, p.leaders, abSalt)
	p.pselMax = 1<<uint(p.pselBits) - 1
	p.psel = p.pselMax / 2
}

// useB reports which side decides for this set right now.
func (p *AB) useB(set uint32) bool {
	switch p.force {
	case ForceA:
		return false
	case ForceB:
		return true
	}
	switch p.d.role(set) {
	case duelLeaderA:
		return false
	case duelLeaderB:
		return true
	}
	return p.psel > p.pselMax/2
}

// onMiss updates the PSEL for a leader-set miss: misses in A-leaders
// argue for B and vice versa. A forced duel never moves its PSEL.
func (p *AB) onMiss(set uint32) {
	if p.force != ForceNone {
		return
	}
	switch p.d.role(set) {
	case duelLeaderA:
		if p.psel < p.pselMax {
			p.psel++
		}
	case duelLeaderB:
		if p.psel > 0 {
			p.psel--
		}
	}
}

// OnAccess implements cache.Policy: both sides observe.
func (p *AB) OnAccess(set uint32, a mem.Access) {
	p.a.OnAccess(set, a)
	p.b.OnAccess(set, a)
}

// Bypass implements cache.Policy: it runs exactly once per miss, so the
// PSEL updates here. Both sides are consulted — a side's Bypass may
// carry its own accounting — but only the chosen side's verdict acts.
func (p *AB) Bypass(set uint32, a mem.Access) bool {
	p.onMiss(set)
	aSays := p.a.Bypass(set, a)
	bSays := p.b.Bypass(set, a)
	if p.useB(set) {
		return bSays
	}
	return aSays
}

// Victim implements cache.Policy: only the chosen side picks (victim
// selection can mutate policy state — RRIP ages the set — so the idle
// side must not run).
func (p *AB) Victim(set uint32, a mem.Access) int {
	if p.useB(set) {
		return p.b.Victim(set, a)
	}
	return p.a.Victim(set, a)
}

// OnHit implements cache.Policy: both sides observe.
func (p *AB) OnHit(set uint32, way int, a mem.Access) {
	p.a.OnHit(set, way, a)
	p.b.OnHit(set, way, a)
}

// OnFill implements cache.Policy: both sides observe.
func (p *AB) OnFill(set uint32, way int, a mem.Access) {
	p.a.OnFill(set, way, a)
	p.b.OnFill(set, way, a)
}

// OnEvict implements cache.Policy: both sides observe.
func (p *AB) OnEvict(set uint32, way int) {
	p.a.OnEvict(set, way)
	p.b.OnEvict(set, way)
}

// PSEL exposes the current selector value for tests.
func (p *AB) PSEL() int { return p.psel }
