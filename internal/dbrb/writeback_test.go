package dbrb

import (
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
)

// The policy guards against write-back accesses (Writeback set, no PC)
// whoever delivers them: they never train the predictor and are never
// bypassed.

// writebackMix drives write-heavy traffic over a footprint larger than
// a 2MB LLC, every third access a write-back, and returns how many of
// the accesses were demand accesses.
func writebackMix(c *cache.Cache, seed uint64, n int) (demand uint64) {
	r := mem.NewRand(seed)
	for i := 0; i < n; i++ {
		a := mem.Access{Addr: uint64(r.Intn(1<<16)) * mem.BlockSize, Write: true}
		if i%3 == 0 {
			a.Writeback = true
		} else {
			demand++
		}
		c.Access(a)
	}
	return demand
}

func wbLLC(pol cache.Policy) *cache.Cache {
	return cache.New(cache.Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16}, pol)
}

func TestWritebacksDoNotTrainPredictor(t *testing.T) {
	pol := New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
	demand := writebackMix(wbLLC(pol), 2, 100000)
	// Every prediction the DBRB policy recorded came from a demand
	// access: predictions <= demand accesses, not total accesses.
	if got := pol.Accuracy().Predictions; got == 0 || got > demand {
		t.Errorf("predictions %d, want between 1 and the %d demand accesses — writebacks predicted",
			got, demand)
	}
}

func TestWritebackNeverBypassed(t *testing.T) {
	// A predictor that predicts everything dead would bypass all demand
	// fills; writebacks must still be placed.
	smp := predictor.NewSampler(predictor.SamplerConfig{
		UseSampler: false, Tables: 1, TableEntries: 2, Threshold: 0, // always dead
	})
	llc := wbLLC(New(policy.NewLRU(), smp))
	writebackMix(llc, 3, 100000)
	if llc.Stats().Bypasses == 0 {
		t.Fatal("no demand fill was bypassed; test is vacuous")
	}
	// All demand fills bypassed, so the LLC's only resident blocks come
	// from writebacks.
	if llc.ValidCount() == 0 {
		t.Error("writebacks were bypassed")
	}
}
