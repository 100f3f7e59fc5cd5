package dbrb

import (
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
)

// attrCache builds a small LLC under a sampling DBRB policy with
// attribution enabled, returning both.
func attrCache(tb testing.TB) (*cache.Cache, *Policy) {
	tb.Helper()
	pol := New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
	pol.EnableAttribution()
	c := cache.New(cache.Config{Name: "LLC", SizeBytes: 64 << 10, Ways: 16}, pol)
	return c, pol
}

// drive pushes a deterministic mixed-PC reference stream through the
// cache: a few hot PCs with very different reuse behavior, so the
// predictor actually issues dead verdicts and false positives.
func drive(c *cache.Cache, accesses int) {
	const (
		pcStream = 0x400100 // streaming: every block touched once
		pcLoop   = 0x400200 // tight reuse: small working set, rehit often
		pcScan   = 0x400300 // large scan with eventual rereference
	)
	var streamAddr, scanAddr uint64
	for i := 0; i < accesses; i++ {
		switch i % 4 {
		case 0:
			streamAddr += mem.BlockSize
			c.Access(mem.Access{Addr: 0x1000_0000 + streamAddr, PC: pcStream, Gap: 3})
		case 1, 2:
			c.Access(mem.Access{Addr: 0x2000_0000 + uint64(i%64)*mem.BlockSize, PC: pcLoop, Gap: 1})
		case 3:
			scanAddr = (scanAddr + 7*mem.BlockSize) % (1 << 22)
			c.Access(mem.Access{Addr: 0x3000_0000 + scanAddr, PC: pcScan, Gap: 5})
		}
	}
}

// TestAttributionReconciles is the core invariant: the per-PC table's
// prediction columns sum exactly to the policy's aggregate Accuracy
// counters, and eviction attribution sums to the cache's eviction
// count.
func TestAttributionReconciles(t *testing.T) {
	c, pol := attrCache(t)
	drive(c, 200_000)

	at := pol.Attribution()
	if at == nil {
		t.Fatal("attribution enabled but table is nil")
	}
	tot := at.Totals()
	acc := pol.Accuracy()
	if tot.Predictions != acc.Predictions || tot.Positives != acc.Positives ||
		tot.FalsePositives != acc.FalsePositives {
		t.Errorf("attribution totals (%d,%d,%d) != aggregate accuracy (%d,%d,%d)",
			tot.Predictions, tot.Positives, tot.FalsePositives,
			acc.Predictions, acc.Positives, acc.FalsePositives)
	}
	if acc.Predictions == 0 || acc.Positives == 0 {
		t.Fatalf("stream produced no dead verdicts (acc=%+v); the fixture is too tame", acc)
	}
	if got := c.Stats().Evictions; tot.Evictions != got {
		t.Errorf("attributed evictions %d != cache evictions %d", tot.Evictions, got)
	}
}

// TestAttributionRowsDeterministicOrder checks the export ordering
// contract (positives desc, predictions desc, PC asc) and that TopK's
// rollup preserves the totals.
func TestAttributionRowsDeterministicOrder(t *testing.T) {
	c, pol := attrCache(t)
	drive(c, 100_000)
	at := pol.Attribution()
	rows := at.Rows()
	if len(rows) < 2 {
		t.Fatalf("want multiple PCs in the table, got %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Positives < b.Positives ||
			(a.Positives == b.Positives && a.Predictions < b.Predictions) ||
			(a.Positives == b.Positives && a.Predictions == b.Predictions && a.PC >= b.PC) {
			t.Errorf("rows %d,%d out of order: %+v then %+v", i-1, i, a, b)
		}
	}

	top, rollup, rolled := at.TopK(1)
	if len(top) != 1 || !rolled {
		t.Fatalf("TopK(1) = %d rows, rolled=%v; want 1 row with rollup", len(top), rolled)
	}
	var sum PCStats
	sum.add(top[0].PCStats)
	sum.add(rollup.PCStats)
	if sum != at.Totals() {
		t.Errorf("TopK(1)+rollup = %+v, want totals %+v", sum, at.Totals())
	}
	if all, _, rolledAll := at.TopK(len(rows)); rolledAll || len(all) != len(rows) {
		t.Errorf("TopK(len) rolled=%v len=%d, want no rollup and %d rows", rolledAll, len(all), len(rows))
	}
}

// TestAttributionDisabledIsNil pins the gate: without EnableAttribution
// the policy keeps no table, and behavior (accuracy counters) is
// byte-for-byte identical to an attributed run over the same stream.
func TestAttributionDisabledIsNil(t *testing.T) {
	plain := New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
	cPlain := cache.New(cache.Config{Name: "LLC", SizeBytes: 64 << 10, Ways: 16}, plain)
	drive(cPlain, 100_000)
	if plain.Attribution() != nil {
		t.Error("attribution table exists without EnableAttribution")
	}

	cAttr, withAttr := attrCache(t)
	drive(cAttr, 100_000)
	if plain.Accuracy() != withAttr.Accuracy() {
		t.Errorf("attribution changed the simulation: accuracy %+v vs %+v",
			plain.Accuracy(), withAttr.Accuracy())
	}
	if cPlain.Stats() != cAttr.Stats() {
		t.Errorf("attribution changed the simulation: stats %+v vs %+v",
			cPlain.Stats(), cAttr.Stats())
	}
}

// TestAttributionDueling checks the embedded policy path: a Dueling
// wrapper's attribution reconciles the same way (its base-side sets
// still record predictions without acting on them).
func TestAttributionDueling(t *testing.T) {
	pol := NewDueling(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
	pol.EnableAttribution()
	c := cache.New(cache.Config{Name: "LLC", SizeBytes: 64 << 10, Ways: 16}, pol)
	drive(c, 100_000)
	tot := pol.Attribution().Totals()
	acc := pol.Accuracy()
	if tot.Predictions != acc.Predictions || tot.Positives != acc.Positives ||
		tot.FalsePositives != acc.FalsePositives {
		t.Errorf("dueling attribution totals (%d,%d,%d) != accuracy (%d,%d,%d)",
			tot.Predictions, tot.Positives, tot.FalsePositives,
			acc.Predictions, acc.Positives, acc.FalsePositives)
	}
}
