package dbrb

import (
	"sdbp/internal/cache"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
)

// Dueling wraps the dead-block replacement and bypass policy in a
// DIP-style set duel against its own base policy: a few leader sets run
// plain base replacement (no dead-block interventions), a few run full
// DBRB, and the PSEL counter steers the rest. On workloads where dead
// block prediction misfires — the paper's astar is the canonical case —
// the duel converges to the base policy and caps the damage, at the
// cost of a little of the upside elsewhere.
//
// This is an extension beyond the paper (which relies on the sampler's
// high threshold alone to limit damage); it composes the paper's
// technique with the set-dueling safety net of Qureshi et al.
type Dueling struct {
	*Policy
	duel *policy.Duel
}

// NewDueling wraps base + pred in a dueling dead-block policy.
func NewDueling(base cache.Policy, pred predictor.Predictor) *Dueling {
	return &Dueling{Policy: New(base, pred)}
}

// Name implements cache.Policy.
func (p *Dueling) Name() string { return "Dueling " + p.Policy.Name() }

// Reset implements cache.Policy.
func (p *Dueling) Reset(sets, ways int) {
	p.Policy.Reset(sets, ways)
	p.duel = policy.NewDuel(sets, 32, 0xDBDB)
}

// useDBRB reports whether a set currently plays the dead-block side.
// Side A is plain base replacement; side B is DBRB.
func (p *Dueling) useDBRB(set uint32) bool { return p.duel.ChooseB(set) }

// Bypass implements cache.Policy: the duel's PSEL updates here (bypass
// runs exactly once per miss), and only DBRB sets may bypass. The
// predictor still observes and trains on every access either way —
// training is sampled and cheap; only the *interventions* are dueled.
func (p *Dueling) Bypass(set uint32, a mem.Access) bool {
	p.duel.OnMiss(set)
	if !p.useDBRB(set) {
		// Keep predictor accounting consistent: record the prediction
		// without acting on it.
		p.Policy.Bypass(set, a)
		return false
	}
	return p.Policy.Bypass(set, a)
}

// Victim implements cache.Policy: base-side sets use the base victim.
func (p *Dueling) Victim(set uint32, a mem.Access) int {
	if !p.useDBRB(set) {
		return p.Base().Victim(set, a)
	}
	return p.Policy.Victim(set, a)
}

// PrefetchVictim implements cache.PrefetchPlacer: base-side sets admit
// no prefetches (they have no dead-block information in force).
func (p *Dueling) PrefetchVictim(set uint32) (int, bool) {
	if !p.useDBRB(set) {
		return 0, false
	}
	return p.Policy.PrefetchVictim(set)
}
