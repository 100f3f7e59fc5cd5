package policytest

import (
	"testing"

	"sdbp/internal/figures"
)

// differentialPair names a composed policy expression and the base
// policy it must degenerate to once its adaptive machinery is
// neutralized. The pairs pin the three neutralization axes:
//
//   - dbrb over the always-live predictor never bypasses and never
//     sees a dead block, so every decision falls through to the base;
//   - SHiP with training off and the SHCT saturated at init inserts
//     every line at rrpvMax-1, which is exactly SRRIP;
//   - a duel forced to its base leader routes every decision to the
//     base while the challenger only observes.
type differentialPair struct {
	name string
	expr string
	base string
}

var differentialPairs = []differentialPair{
	{"never/lru", "dbrb(base=lru,pred=never)", "lru"},
	{"never/random", "dbrb(base=random,pred=never)", "random"},
	{"never/nru", "dbrb(base=nru,pred=never)", "nru"},
	{"never/plru", "dbrb(base=plru,pred=never)", "plru"},
	{"never/srrip", "dbrb(base=srrip,pred=never)", "srrip"},
	{"ship-off/srrip", "ship(train=off,init=7)", "srrip"},
	{"duel-forced/lru", "duel(a=lru,b=dbrb(base=lru,pred=reuse),force=a)", "lru"},
}

// differentialBenches pins the identities on the repo's sampled
// validation suite — the memory-diverse bench set the figures already
// treat as representative. -short keeps one streaming and one
// irregular bench.
func differentialBenches(t *testing.T) []string {
	if testing.Short() {
		return []string{"456.hmmer", "429.mcf"}
	}
	return figures.SampledValidationBenches
}

// TestDifferentialDegeneration proves each neutralized composition is
// byte-identical to its base policy: full fingerprint equality,
// including the formatted figure cells, on every validation bench.
func TestDifferentialDegeneration(t *testing.T) {
	for _, pair := range differentialPairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			for _, bench := range differentialBenches(t) {
				got := Run(pair.expr, bench, conformanceScale, conformanceLLC)
				want := Run(pair.base, bench, conformanceScale, conformanceLLC)
				if want.LLC.Evictions == 0 {
					t.Errorf("%s: %q evicts nothing; the identity cannot fail", bench, pair.base)
				}
				if got.Cells != want.Cells {
					t.Errorf("%s: %q cells %q != base %q cells %q",
						bench, pair.expr, got.Cells, pair.base, want.Cells)
				}
				if got.Instructions != want.Instructions || got.Cycles != want.Cycles ||
					got.IPC != want.IPC || got.MPKI != want.MPKI || got.LLC != want.LLC {
					t.Errorf("%s: %q fingerprint diverged from %q:\n  got  %+v\n  want %+v",
						bench, pair.expr, pair.base, got, want)
				}
			}
		})
	}
}

// TestDifferentialNeverPredicts pins the mechanism behind the dbrb
// identities: the always-live predictor produces dead-block predictions
// on every fill yet zero positive verdicts, so the wrapper's bypass and
// dead-victim paths never fire.
func TestDifferentialNeverPredicts(t *testing.T) {
	fp := Run("dbrb(base=lru,pred=never)", conformanceBench, conformanceScale, conformanceLLC)
	if fp.Accuracy == nil {
		t.Fatal("dbrb run carried no accuracy accounting")
	}
	if fp.Accuracy.Positives != 0 {
		t.Errorf("always-live predictor produced %d dead verdicts, want 0", fp.Accuracy.Positives)
	}
	if fp.LLC.Bypasses != 0 {
		t.Errorf("always-live predictor caused %d bypasses, want 0", fp.LLC.Bypasses)
	}
}
