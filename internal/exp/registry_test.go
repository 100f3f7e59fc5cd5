package exp

import (
	"strings"
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/dbrb"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// TestEveryPresetConstructs is the registry round-trip suite: every
// preset name, CLI alias, and Figure 6 ablation variant resolves, its
// factory builds instances for 1 and 4 threads, and its canonical
// expression re-resolves to the same canonical form.
func TestEveryPresetConstructs(t *testing.T) {
	var names []string
	names = append(names, PresetNames()...)
	names = append(names, AblationVariantNames()...)
	for alias := range presetAliases {
		names = append(names, alias)
	}
	for _, name := range names {
		p, err := ResolvePolicy(name)
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		if p.Make(1) == nil || p.Make(4) == nil {
			t.Errorf("%q: factory built nil policy", name)
		}
		again, err := ResolvePolicy(p.Expr)
		if err != nil {
			t.Errorf("%q: canonical expr %q does not re-resolve: %v", name, p.Expr, err)
			continue
		}
		if again.Expr != p.Expr {
			t.Errorf("%q: expr %q re-resolved to %q", name, p.Expr, again.Expr)
		}
	}
}

// TestEveryRegisteredNameConstructs builds each bare policy and
// predictor expression name with its defaults.
func TestEveryRegisteredNameConstructs(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ResolvePolicy(name)
		if err != nil {
			t.Errorf("policy %q: %v", name, err)
		} else if p.Make(1) == nil {
			t.Errorf("policy %q: nil instance", name)
		}
	}
	for _, name := range PredictorNames() {
		p, err := NewPredictor(name)
		if err != nil {
			t.Errorf("predictor %q: %v", name, err)
		} else if p == nil {
			t.Errorf("predictor %q: nil instance", name)
		}
	}
}

// TestPaperSeedConstants pins the paper-default seeds the registry
// feeds the seeded policies.
func TestPaperSeedConstants(t *testing.T) {
	if RandomSeed != 1 || DIPSeed != 2 || TADIPSeed != 3 || DRRIPSeed != 4 {
		t.Errorf("seed constants changed: random=%d dip=%d tadip=%d drrip=%d",
			RandomSeed, DIPSeed, TADIPSeed, DRRIPSeed)
	}
}

func TestExprCanonicalRoundTrip(t *testing.T) {
	for _, s := range []string{
		"lru",
		"random(seed=7)",
		"dbrb(base=lru,pred=sampler)",
		"dbrb(base=random(seed=9),pred=sampler(sets=64,threshold=6))",
		"dueling(base=plru,pred=counting)",
		"sampler(sampling=false,tables=1)",
	} {
		e, err := ParseExpr(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if e.String() != s {
			t.Errorf("rendered %q != input %q", e.String(), s)
		}
		again, err := ParseExpr(e.String())
		if err != nil || again.String() != e.String() {
			t.Errorf("%q does not re-parse identically (%v)", e.String(), err)
		}
	}
}

// TestPresetExprs pins the canonical expression of every preset and
// Figure 6 variant, in presentation order. Figure cell keys, sdbpd
// content addresses and the repository benchmark's digests carry these
// strings, so none may change.
func TestPresetExprs(t *testing.T) {
	want := []struct{ name, expr string }{
		{"LRU", "lru"},
		{"Random", "random"},
		{"DIP", "dip"},
		{"TADIP", "tadip"},
		{"RRIP", "rrip"},
		{"Sampler", "dbrb(base=lru,pred=sampler)"},
		{"TDBP", "dbrb(base=lru,pred=reftrace)"},
		{"CDBP", "dbrb(base=lru,pred=counting)"},
		{"Random Sampler", "dbrb(base=random,pred=sampler)"},
		{"Random CDBP", "dbrb(base=random,pred=counting)"},
		{"PLRU", "plru"},
		{"NRU", "nru"},
		{"PLRU Sampler", "dbrb(base=plru,pred=sampler)"},
		{"NRU Sampler", "dbrb(base=nru,pred=sampler)"},
		{"Bursts", "dbrb(base=lru,pred=bursts)"},
		{"AIP", "dbrb(base=lru,pred=aip)"},
		{"SamplingCounting", "dbrb(base=lru,pred=samplingcounting)"},
		{"TimeBased", "dbrb(base=lru,pred=timebased)"},
		{"Dueling Sampler", "dueling(base=lru,pred=sampler)"},
		{"SHiP", "ship"},
		{"Skewed DBP", "dbrb(base=lru,pred=skewed)"},
		{"Improved DBP", "duel(a=lru,b=dbrb(base=lru,pred=reuse))"},
		{"DBRB alone", "dbrb(base=lru,pred=sampler(sampling=false,tables=1,entries=16384,threshold=3))"},
		{"DBRB+3 tables", "dbrb(base=lru,pred=sampler(sampling=false))"},
		{"DBRB+sampler", "dbrb(base=lru,pred=sampler(assoc=16,tables=1,entries=16384,threshold=3))"},
		{"DBRB+sampler+3 tables", "dbrb(base=lru,pred=sampler(assoc=16))"},
		{"DBRB+sampler+12-way", "dbrb(base=lru,pred=sampler(tables=1,entries=16384,threshold=3))"},
		{"DBRB+sampler+3 tables+12-way", "dbrb(base=lru,pred=sampler)"},
		{"DBRB+skewed tags", "dbrb(base=lru,pred=skewed)"},
		{"DBRB+reuse counters", "dbrb(base=lru,pred=reuse)"},
	}
	names := append(PresetNames(), AblationVariantNames()...)
	if len(PresetNames()) != 22 || len(names) != len(want) {
		t.Fatalf("%d presets and %d variants, want 22 and 8", len(PresetNames()), len(names)-len(PresetNames()))
	}
	for i, w := range want {
		p := MustResolvePolicy(w.name)
		if names[i] != w.name || p.Name != w.name || p.Expr != w.expr {
			t.Errorf("preset %d = %q named %q with expr %q, want %q with %q", i, names[i], p.Name, p.Expr, w.name, w.expr)
		}
	}
}

// TestAblationVariantConfigs checks the Figure 6 variants against the
// paper's decomposition: the full variant is the paper's sampler, the
// variant without it keeps one 16384-entry table, and the skewed
// tables are each a quarter of that single table.
func TestAblationVariantConfigs(t *testing.T) {
	cfg := func(name string) predictor.SamplerConfig {
		t.Helper()
		s, ok := MustDBRBFactory(name)().Predictor().(*predictor.Sampler)
		if !ok {
			t.Fatalf("%s: predictor is not a sampler", name)
		}
		return s.Config()
	}
	if full := cfg("DBRB+sampler+3 tables+12-way"); full != predictor.DefaultSamplerConfig() {
		t.Errorf("full variant = %+v, want the default config", full)
	}
	alone := cfg("DBRB alone")
	if alone.UseSampler || alone.Tables != 1 || alone.TableEntries != 16384 {
		t.Errorf("DBRB alone = %+v", alone)
	}
	if three := cfg("DBRB+3 tables"); three.Tables != 3 || three.TableEntries*4 != alone.TableEntries {
		t.Errorf("DBRB+3 tables = %+v: skewed tables are not quarter-sized", three)
	}
}

// TestCanonicalEquivalences: spellings of one configuration (arguments
// reordered, defaults written out, values padded) resolve to one
// canonical expression, which is also a raw expression's name.
func TestCanonicalEquivalences(t *testing.T) {
	for _, c := range []struct{ spelled, canon string }{
		{"dbrb", "dbrb(base=lru,pred=sampler)"},
		{"dbrb(pred=sampler,base=lru)", "dbrb(base=lru,pred=sampler)"},
		{"dbrb(base=lru,pred=sampler(sets=32,threshold=8))", "dbrb(base=lru,pred=sampler)"},
		{" dbrb ( pred = sampler ( sampling = true ) ) ", "dbrb(base=lru,pred=sampler)"},
		{"random(seed=1)", "random"},
		{"random(seed=007)", "random(seed=7)"},
		{"dbrb(pred=sampler(sets=064))", "dbrb(base=lru,pred=sampler(sets=64))"},
		{"dbrb(pred=sampler(sampling=F))", "dbrb(base=lru,pred=sampler(sampling=false))"},
		{"duel(force=none)", "duel(a=lru,b=dbrb(base=lru,pred=reuse))"},
		{"duel(psel=10,leaders=32,b=dbrb(pred=reuse),a=lru)", "duel(a=lru,b=dbrb(base=lru,pred=reuse))"},
		{"ship(train=all,sigbits=14,max=7,init=0,samples=64)", "ship"},
		{"dueling(pred=skewed(tags=8),base=lru)", "dueling(base=lru,pred=skewed)"},
		{"dbrb(pred=reuse(threshold=8,tables=3))", "dbrb(base=lru,pred=reuse)"},
		{"dip(seed=2)", "dip"},
	} {
		p, err := ResolvePolicy(c.spelled)
		if err != nil {
			t.Errorf("%q: %v", c.spelled, err)
			continue
		}
		if p.Expr != c.canon || p.Name != c.canon {
			t.Errorf("%q resolved to expr %q named %q, want %q", c.spelled, p.Expr, p.Name, c.canon)
		}
	}
}

// TestCanonicalKeepsEveryKnob is the injectivity table: each knob of
// every factory, set to a value other than its default, keeps its
// key=value in the canonical expression, so no two of these
// configurations, nor any of them and its factory's default, share an
// identity.
func TestCanonicalKeepsEveryKnob(t *testing.T) {
	variants := []struct{ expr, knob string }{
		{"random(seed=7)", "seed=7"},
		{"dip(seed=7)", "seed=7"},
		{"tadip(seed=7)", "seed=7"},
		{"rrip(seed=7)", "seed=7"},
		{"ship(sigbits=13)", "sigbits=13"},
		{"ship(max=6)", "max=6"},
		{"ship(init=1)", "init=1"},
		{"ship(samples=32)", "samples=32"},
		{"ship(train=sampled)", "train=sampled"},
		{"ship(train=off)", "train=off"},
		{"duel(a=nru)", "a=nru"},
		{"duel(b=lru)", "b=lru"},
		{"duel(leaders=16)", "leaders=16"},
		{"duel(psel=9)", "psel=9"},
		{"duel(force=a)", "force=a"},
		{"duel(force=b)", "force=b"},
		{"dbrb(base=nru)", "base=nru"},
		{"dbrb(pred=counting)", "pred=counting"},
		{"dueling(base=nru)", "base=nru"},
		{"dueling(pred=counting)", "pred=counting"},
		{"dbrb(pred=sampler(sampling=false))", "sampling=false"},
		{"dbrb(pred=sampler(sets=64))", "sets=64"},
		{"dbrb(pred=sampler(assoc=16))", "assoc=16"},
		{"dbrb(pred=sampler(tables=1))", "tables=1"},
		{"dbrb(pred=sampler(entries=8192))", "entries=8192"},
		{"dbrb(pred=sampler(threshold=7))", "threshold=7"},
		{"dbrb(pred=skewed(sets=64))", "sets=64"},
		{"dbrb(pred=skewed(assoc=16))", "assoc=16"},
		{"dbrb(pred=skewed(tables=2))", "tables=2"},
		{"dbrb(pred=skewed(entries=8192))", "entries=8192"},
		{"dbrb(pred=skewed(tags=9))", "tags=9"},
		{"dbrb(pred=skewed(threshold=7))", "threshold=7"},
		{"dbrb(pred=reuse(tables=4))", "tables=4"},
		{"dbrb(pred=reuse(entries=8192))", "entries=8192"},
		{"dbrb(pred=reuse(threshold=5))", "threshold=5"},
	}
	seen := map[string]string{}
	identity := func(spelled string) string {
		t.Helper()
		p, err := ResolvePolicy(spelled)
		if err != nil {
			t.Fatalf("%q: %v", spelled, err)
		}
		if prev, dup := seen[p.Expr]; dup {
			t.Errorf("%q and %q share the identity %q", spelled, prev, p.Expr)
		}
		seen[p.Expr] = spelled
		return p.Expr
	}
	for _, bare := range []string{"random", "dip", "tadip", "rrip", "ship", "duel", "dbrb", "dueling",
		"dbrb(pred=skewed)", "dbrb(pred=reuse)"} {
		identity(bare)
	}
	for _, v := range variants {
		if got := identity(v.expr); !strings.Contains(got, v.knob) {
			t.Errorf("%q resolved to %q, which drops %s", v.expr, got, v.knob)
		}
	}
}

// TestResolveErrorsNotPanics feeds the resolver malformed input; every
// case must return an error, never panic.
func TestResolveErrorsNotPanics(t *testing.T) {
	for _, s := range []string{
		"",
		"nosuchpolicy",
		"lru(seed=1)",                          // lru takes no args
		"random(seed=x)",                       // non-numeric
		"random(seed=1,seed=2)",                // duplicate key
		"random(seed=1)x",                      // trailing input
		"dbrb(pred=nosuchpred)",                // unknown predictor
		"dbrb(base=lru,pred=sampler(sets=3))",  // non-pow2 sampler sets
		"dbrb(base=lru,pred=sampler(bogus=1))", // unknown parameter
		"sampler",                              // predictor, not a policy
		"dbrb(base=lru,pred=sampler(entries=3))",
		"ship(sigbits=99)",                    // signature wider than hash
		"ship(max=0)",                         // counter cannot saturate
		"ship(init=8)",                        // init above max (default 7)
		"ship(train=sometimes)",               // unknown training mode
		"ship(samples=3)",                     // non-pow2 sampled sets
		"ship(bogus=1)",                       // unknown parameter
		"duel(psel=0)",                        // PSEL needs at least one bit
		"duel(psel=31)",                       // PSEL wider than int-safe
		"duel(leaders=0)",                     // no leader sets to duel
		"duel(force=maybe)",                   // unknown force token
		"duel(a=sampler)",                     // predictor on a policy side
		"dbrb(base=lru,pred=skewed(tags=16))", // tag wider than storage
		"dbrb(base=lru,pred=skewed(entries=3))",
		"dbrb(base=lru,pred=skewed(sets=3))", // non-pow2 sampler sets
		"dbrb(base=lru,pred=reuse(threshold=0))",
		"dbrb(base=lru,pred=reuse(threshold=99))", // above 3*tables
		"dbrb(base=lru,pred=never(x=1))",          // never takes no args
	} {
		if _, err := ResolvePolicy(s); err == nil {
			t.Errorf("ResolvePolicy(%q) accepted", s)
		}
	}
	if _, err := NewPredictor("lru"); err == nil {
		t.Error("NewPredictor accepted a policy name")
	}
}

func TestGeometry(t *testing.T) {
	cfg, err := Geometry("llc(mb=4)")
	if err != nil || cfg.SizeBytes != 4<<20 || cfg.Ways != 16 {
		t.Errorf("llc(mb=4) = %+v, %v", cfg, err)
	}
	cfg, err = Geometry("llc(kb=512,ways=8)")
	if err != nil || cfg.SizeBytes != 512<<10 || cfg.Ways != 8 {
		t.Errorf("llc(kb=512,ways=8) = %+v, %v", cfg, err)
	}
	for _, s := range []string{
		"llc",               // neither mb nor kb
		"llc(mb=1,kb=1)",    // both
		"llc(mb=3,ways=16)", // 3MB/16w -> non-pow2 sets
		"llc(mb=1,ways=0)",  // bad ways
		"l2(mb=1)",          // unknown geometry
		"llc(mb=1,bogus=2)", // unknown parameter
	} {
		if _, err := Geometry(s); err == nil {
			t.Errorf("Geometry(%q) accepted", s)
		}
	}
}

func TestDBRBFactory(t *testing.T) {
	mk, err := DBRBFactory("Sampler")
	if err != nil || mk() == nil {
		t.Fatalf("DBRBFactory(Sampler) = %v", err)
	}
	if _, err := DBRBFactory("LRU"); err == nil {
		t.Error("DBRBFactory accepted a non-dbrb preset")
	}
	if _, err := DBRBFactory("dueling(base=lru,pred=sampler)"); err == nil {
		t.Error("DBRBFactory accepted a dueling root")
	}
	if _, err := DBRBFactory("dbrb(pred=bogus)"); err == nil {
		t.Error("DBRBFactory accepted an unknown predictor")
	}
}

// TestRegistryMatchesHandBuilt proves the refactor is behavior
// preserving at the simulation level: a registry-built policy produces
// bit-identical results to the same policy constructed by hand.
func TestRegistryMatchesHandBuilt(t *testing.T) {
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.SingleOptions{Scale: 0.02}
	for _, c := range []struct {
		name string
		hand func() cache.Policy
	}{
		{"Sampler", func() cache.Policy {
			return dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.DefaultSamplerConfig()))
		}},
		{"Random CDBP", func() cache.Policy {
			return dbrb.New(policy.NewRandom(RandomSeed), predictor.NewCounting())
		}},
		{"RRIP", func() cache.Policy { return policy.NewDRRIP(1, DRRIPSeed) }},
		{"DIP", func() cache.Policy { return policy.NewDIP(DIPSeed) }},
	} {
		reg := sim.RunSingle(w, MustResolvePolicy(c.name).Make(1), opts)
		hand := sim.RunSingle(w, c.hand(), opts)
		if reg.MPKI != hand.MPKI || reg.IPC != hand.IPC || reg.LLC.Misses != hand.LLC.Misses {
			t.Errorf("%s: registry (MPKI %v, IPC %v) != hand-built (MPKI %v, IPC %v)",
				c.name, reg.MPKI, reg.IPC, hand.MPKI, hand.IPC)
		}
	}
}
