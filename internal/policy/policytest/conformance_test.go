package policytest

import (
	"runtime"
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// conformanceBench, conformanceScale and conformanceLLC fix the
// workload and LLC every policy spelling runs under. One
// memory-intensive benchmark at scale 0.05 keeps the full matrix (every
// spelling × repeats × GOMAXPROCS) tractable, and a 512KB 16-way LLC
// makes it evict: there the policies decide differently, so a wrong
// replacement or bypass decision changes a fingerprint. On the paper's
// 2MB LLC a stream this short never evicts, and every policy
// fingerprints alike. TestConformanceGeometryDiscriminates pins both
// properties.
const (
	conformanceBench = "456.hmmer"
	conformanceScale = 0.05
)

var conformanceLLC = cache.Config{Name: "LLC", SizeBytes: 512 << 10, Ways: 16}

// shortExpressions is the -short subset: the paper's policy, the three
// new zoo members, and the baseline.
func shortExpressions() []string {
	return []string{"LRU", "Sampler", "SHiP", "Skewed DBP", "Improved DBP"}
}

func exprsUnderTest(t *testing.T) []string {
	if testing.Short() {
		return shortExpressions()
	}
	return Expressions()
}

// same reports whether two fingerprints are identical, including the
// dead-block accounting when both carry it.
func same(a, b Fingerprint) bool {
	if a.Instructions != b.Instructions || a.Cycles != b.Cycles ||
		a.IPC != b.IPC || a.MPKI != b.MPKI || a.LLC != b.LLC || a.Cells != b.Cells {
		return false
	}
	if (a.Accuracy == nil) != (b.Accuracy == nil) {
		return false
	}
	if a.Accuracy != nil && *a.Accuracy != *b.Accuracy {
		return false
	}
	return true
}

// checkInvariants applies the shared per-run invariants: stats
// reconcile, the run made progress, and no dead-block verdict stands
// without a prior prediction.
func checkInvariants(t *testing.T, expr string, fp Fingerprint) {
	t.Helper()
	if msg := CheckStats(fp.LLC); msg != "" {
		t.Errorf("%q: stats: %s", expr, msg)
	}
	if fp.Instructions == 0 || fp.IPC <= 0 || fp.LLC.Accesses == 0 {
		t.Errorf("%q: run made no progress: %+v", expr, fp)
	}
	if acc := fp.Accuracy; acc != nil {
		if acc.Positives > acc.Predictions {
			t.Errorf("%q: %d dead verdicts but only %d predictions", expr, acc.Positives, acc.Predictions)
		}
		if acc.FalsePositives > acc.Positives {
			t.Errorf("%q: %d false positives but only %d dead verdicts", expr, acc.FalsePositives, acc.Positives)
		}
		if acc.Predictions > fp.LLC.Accesses {
			t.Errorf("%q: %d predictions exceed %d accesses", expr, acc.Predictions, fp.LLC.Accesses)
		}
	}
}

// TestConformanceGeometryDiscriminates pins what lets the conformance
// and differential suites fail: every benchmark they run evicts under
// LRU, and on conformanceBench policies that decide differently hit a
// different number of times.
func TestConformanceGeometryDiscriminates(t *testing.T) {
	for _, bench := range append([]string{conformanceBench}, differentialBenches(t)...) {
		if fp := Run("lru", bench, conformanceScale, conformanceLLC); fp.LLC.Evictions == 0 {
			t.Errorf("%s evicts nothing under LRU; no identity or repeat check can fail on it", bench)
		}
	}
	byHits := map[uint64]string{}
	for _, expr := range []string{"lru", "random(seed=7)", "srrip", "ship"} {
		fp := Run(expr, conformanceBench, conformanceScale, conformanceLLC)
		if other, ok := byHits[fp.LLC.Hits]; ok {
			t.Errorf("%q and %q both hit %d times on %s; the geometry does not tell policies apart",
				other, expr, fp.LLC.Hits, conformanceBench)
		}
		byHits[fp.LLC.Hits] = expr
		t.Logf("%s under %q: %d LLC hits, %d evictions", conformanceBench, expr, fp.LLC.Hits, fp.LLC.Evictions)
	}
}

// TestConformanceInvariants runs every registry spelling once and
// applies the shared invariants, then once more to pin determinism
// across repeats: identical fingerprints, bit for bit.
func TestConformanceInvariants(t *testing.T) {
	for _, expr := range exprsUnderTest(t) {
		first := Run(expr, conformanceBench, conformanceScale, conformanceLLC)
		checkInvariants(t, expr, first)
		second := Run(expr, conformanceBench, conformanceScale, conformanceLLC)
		if !same(first, second) {
			t.Errorf("%q: repeat diverged:\n  first  %+v\n  second %+v", expr, first, second)
		}
	}
}

// TestConformanceGOMAXPROCS pins single-core determinism against the
// scheduler: the same run under GOMAXPROCS 1 and 4 must fingerprint
// identically.
func TestConformanceGOMAXPROCS(t *testing.T) {
	exprs := exprsUnderTest(t)
	ref := make([]Fingerprint, len(exprs))
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for i, expr := range exprs {
			fp := Run(expr, conformanceBench, conformanceScale, conformanceLLC)
			if procs == 1 {
				ref[i] = fp
				continue
			}
			if !same(ref[i], fp) {
				t.Errorf("%q: GOMAXPROCS=4 diverged from GOMAXPROCS=1:\n  1: %+v\n  4: %+v", expr, ref[i], fp)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// allocPinned is the policy set whose steady-state LLC access path is
// pinned allocation-free: the baseline, the paper's sampler stack, and
// the three zoo additions of this harness.
var allocPinned = []string{"LRU", "Sampler", "SHiP", "Skewed DBP", "Improved DBP"}

// TestSteadyStateAllocs extends the repo's 0 allocs/op pin to the zoo:
// once warm, Access must not allocate for any pinned policy.
func TestSteadyStateAllocs(t *testing.T) {
	w, err := workloads.ByName(conformanceBench)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.RunSingle(w, exp.MustResolvePolicy("LRU").Make(1),
		sim.SingleOptions{Scale: 0.1, CaptureStream: true})
	if len(r.Stream) == 0 {
		t.Fatal("no LLC traffic captured")
	}
	for _, name := range allocPinned {
		llc := cache.New(hier.LLCConfig(1), exp.MustResolvePolicy(name).Make(1))
		for _, a := range r.Stream {
			llc.Access(a)
		}
		i := 0
		avg := testing.AllocsPerRun(1000, func() {
			llc.Access(r.Stream[i%len(r.Stream)])
			i++
		})
		if avg != 0 {
			t.Errorf("%s: steady-state Access allocates %.2f allocs/op, want 0", name, avg)
		}
	}
}

// TestCanonicalSpellingsRunIdentically: the registry gives spellings
// of one configuration (arguments reordered, defaults written out) one
// canonical expression, so figure cells and sdbpd answer one from the
// other. Each spelled-out form must run exactly as its canonical form.
// 429.mcf at scale 0.1 evicts enough for a knob off its default to run
// differently, which the last check confirms.
func TestCanonicalSpellingsRunIdentically(t *testing.T) {
	run := func(expr string) Fingerprint { return Run(expr, "429.mcf", 0.1, hier.LLCConfig(1)) }
	for _, c := range []struct{ spelled, canon string }{
		{"dbrb(pred=sampler(threshold=8,sets=32),base=lru)", "dbrb(base=lru,pred=sampler)"},
		{"random(seed=1)", "random"},
		{"duel(force=none,psel=10,leaders=32)", "duel(a=lru,b=dbrb(base=lru,pred=reuse))"},
		{"ship(train=all,sigbits=14)", "ship"},
	} {
		if got := exp.MustResolvePolicy(c.spelled).Expr; got != c.canon {
			t.Errorf("%q resolves to %q, want %q", c.spelled, got, c.canon)
		}
		if a, b := run(c.spelled), run(c.canon); !same(a, b) {
			t.Errorf("%q and its canonical %q run differently:\n%+v\n%+v", c.spelled, c.canon, a, b)
		}
	}
	if same(run("dbrb(base=lru,pred=sampler(threshold=6))"), run("dbrb(base=lru,pred=sampler)")) {
		t.Error("sampler thresholds 6 and 8 fingerprint alike; the check above cannot tell configurations apart")
	}
}
