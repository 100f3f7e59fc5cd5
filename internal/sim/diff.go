package sim

import (
	"sdbp/internal/cache"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/workloads"
)

// DiffResult classifies every LLC access of a benchmark by its outcome
// under two policies run in lockstep on the identical reference stream
// (the L2-miss stream is LLC-policy-independent, so the comparison is
// exact).
type DiffResult struct {
	// Benchmark, PolicyA and PolicyB identify the comparison.
	Benchmark, PolicyA, PolicyB string
	// BothHit..BothMiss partition the LLC accesses.
	BothHit, OnlyAHit, OnlyBHit, BothMiss uint64
}

// Accesses returns the total classified accesses.
func (d DiffResult) Accesses() uint64 {
	return d.BothHit + d.OnlyAHit + d.OnlyBHit + d.BothMiss
}

// DamageRate returns the fraction of accesses where B missed but A hit
// — the misses policy B *introduced* relative to A. For A = LRU and B =
// a dead-block policy this is the true cost of wrong dead predictions,
// untangled from the benign dead-marked-but-rehit events that inflate
// the Figure 9 false positive rate.
func (d DiffResult) DamageRate() float64 {
	n := d.Accesses()
	if n == 0 {
		return 0
	}
	return float64(d.OnlyAHit) / float64(n)
}

// GainRate returns the fraction of accesses where B hit but A missed.
func (d DiffResult) GainRate() float64 {
	n := d.Accesses()
	if n == 0 {
		return 0
	}
	return float64(d.OnlyBHit) / float64(n)
}

// CompareLLC runs one benchmark against two LLC policies in lockstep
// and classifies every LLC access by its hit/miss outcome under each.
// Both LLCs receive the same LLC-bound records, the ones RunSingle's
// LLC receives.
func CompareLLC(w workloads.Workload, polA, polB cache.Policy, opts SingleOptions) DiffResult {
	opts.normalize()
	// Neither cache's efficiency is reported.
	cfg := opts.LLC
	cfg.SkipEfficiency = true
	llcA := cache.New(cfg, polA)
	llcB := cache.New(cfg, polB)

	res := DiffResult{Benchmark: w.Name, PolicyA: polA.Name(), PolicyB: polB.Name()}
	llcAs := make([]mem.Access, chunkSize)
	rsA := make([]cache.Result, chunkSize)
	rsB := make([]cache.Result, chunkSize)
	Filter(w, opts.Scale, func(recs []hier.Filtered) {
		n := llcBound(recs, llcAs)
		llcA.AccessBatch(llcAs[:n], rsA[:n])
		llcB.AccessBatch(llcAs[:n], rsB[:n])
		for i := 0; i < n; i++ {
			hitA, hitB := rsA[i].Hit, rsB[i].Hit
			switch {
			case hitA && hitB:
				res.BothHit++
			case hitA:
				res.OnlyAHit++
			case hitB:
				res.OnlyBHit++
			default:
				res.BothMiss++
			}
		}
	})
	return res
}
