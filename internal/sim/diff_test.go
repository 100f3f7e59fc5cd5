package sim

import (
	"reflect"
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/dbrb"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
	"sdbp/internal/workloads"
)

func TestCompareLLCSamePolicyIsIdentical(t *testing.T) {
	w := hmmer(t)
	d := CompareLLC(w, policy.NewLRU(), policy.NewLRU(), SingleOptions{Scale: testScale})
	if d.OnlyAHit != 0 || d.OnlyBHit != 0 {
		t.Errorf("identical policies diverged: %+v", d)
	}
	if d.Accesses() == 0 {
		t.Fatal("no LLC accesses classified")
	}
}

func TestCompareLLCMatchesIndependentRuns(t *testing.T) {
	// The diff's per-policy hit counts must equal what independent runs
	// of each policy report.
	w := hmmer(t)
	mkS := func() *dbrb.Policy {
		return dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
	}
	d := CompareLLC(w, policy.NewLRU(), mkS(), SingleOptions{Scale: testScale})
	lru := RunSingle(w, policy.NewLRU(), SingleOptions{Scale: testScale})
	smp := RunSingle(w, mkS(), SingleOptions{Scale: testScale})
	if gotA := d.BothHit + d.OnlyAHit; gotA != lru.LLC.Hits {
		t.Errorf("A hits %d != independent LRU hits %d", gotA, lru.LLC.Hits)
	}
	if gotB := d.BothHit + d.OnlyBHit; gotB != smp.LLC.Hits {
		t.Errorf("B hits %d != independent sampler hits %d", gotB, smp.LLC.Hits)
	}
}

// recorder is an LLC policy that records every access its cache
// delivers to it.
type recorder struct {
	cache.Policy
	seen []mem.Access
}

func (r *recorder) OnAccess(set uint32, a mem.Access) {
	r.seen = append(r.seen, a)
	r.Policy.OnAccess(set, a)
}

func TestCompareLLCFeedsBothCachesTheLLCStream(t *testing.T) {
	// Both sides of the comparison must receive exactly the records
	// RunSingle's LLC receives: the LLC-bound accesses in stream order,
	// gap-rewritten.
	w := hmmer(t)
	a := &recorder{Policy: policy.NewLRU()}
	b := &recorder{Policy: policy.NewLRU()}
	CompareLLC(w, a, b, SingleOptions{Scale: testScale})
	want := RunSingle(w, policy.NewLRU(), SingleOptions{Scale: testScale, CaptureStream: true}).Stream
	if len(want) == 0 {
		t.Fatal("no LLC traffic captured")
	}
	for _, side := range []struct {
		name string
		seen []mem.Access
	}{{"A", a.seen}, {"B", b.seen}} {
		if !reflect.DeepEqual(side.seen, want) {
			t.Errorf("%s saw %d records, differs from the %d the LLC receives in RunSingle",
				side.name, len(side.seen), len(want))
		}
	}
}

func TestSamplerDamageIsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	// The sampler's *true* damage (LRU hit, sampler missed) must be far
	// smaller than its gains on a benchmark it wins.
	w := hmmer(t)
	d := CompareLLC(w, policy.NewLRU(),
		dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig())),
		SingleOptions{Scale: 0.2})
	if d.GainRate() <= d.DamageRate() {
		t.Errorf("gain %.4f not above damage %.4f", d.GainRate(), d.DamageRate())
	}
}

func TestDiffRatesZeroSafe(t *testing.T) {
	var d DiffResult
	if d.DamageRate() != 0 || d.GainRate() != 0 {
		t.Error("zero diff has nonzero rates")
	}
}

func TestCompareLLCAcrossBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	// Smoke over a few behavior classes.
	for _, name := range []string{"429.mcf", "462.libquantum", "473.astar"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d := CompareLLC(w, policy.NewLRU(),
			dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig())),
			SingleOptions{Scale: testScale})
		if d.Accesses() == 0 {
			t.Errorf("%s: no accesses classified", name)
		}
	}
}
