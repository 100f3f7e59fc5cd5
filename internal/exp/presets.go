package exp

import "fmt"

// presetTable binds each paper abbreviation (Table V, the extension
// studies and the Figure 6 ablation bars) to the expression it stands
// for, in presentation order: the paper's comparison policies, the
// extension policies, then the Figure 6 variants. Presets are the
// vocabulary the figures, the public facade and the CLIs use;
// expressions are the escape hatch for configurations the paper does
// not name. Each expression is written in its canonical form.
var presetTable = []struct{ name, expr string }{
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

	// The paper's six Figure 6 bars: the sampler with its components
	// switched off one at a time. Without the sampler, one 16384-entry
	// table (threshold 3 of 3) stands against three 4096-entry skewed
	// tables (8 of 9), and the sampler is 16-way against 12-way.
	{"DBRB alone", "dbrb(base=lru,pred=sampler(sampling=false,tables=1,entries=16384,threshold=3))"},
	{"DBRB+3 tables", "dbrb(base=lru,pred=sampler(sampling=false))"},
	{"DBRB+sampler", "dbrb(base=lru,pred=sampler(assoc=16,tables=1,entries=16384,threshold=3))"},
	{"DBRB+sampler+3 tables", "dbrb(base=lru,pred=sampler(assoc=16))"},
	{"DBRB+sampler+12-way", "dbrb(base=lru,pred=sampler(tables=1,entries=16384,threshold=3))"},
	{"DBRB+sampler+3 tables+12-way", "dbrb(base=lru,pred=sampler)"},
	// Extension variants: the same DBRB wrapper driven by the skewed
	// tagged-table predictor and by the reuse-counter core, isolating
	// the training rule and table organization against the sampler's
	// own decomposition.
	{"DBRB+skewed tags", "dbrb(base=lru,pred=skewed)"},
	{"DBRB+reuse counters", "dbrb(base=lru,pred=reuse)"},
}

// presetAliases maps the single-token CLI spellings to the canonical
// spaced preset names.
var presetAliases = map[string]string{
	"RandomSampler":  "Random Sampler",
	"RandomCDBP":     "Random CDBP",
	"PLRUSampler":    "PLRU Sampler",
	"NRUSampler":     "NRU Sampler",
	"DuelingSampler": "Dueling Sampler",
	"SkewedDBP":      "Skewed DBP",
	"ImprovedDBP":    "Improved DBP",
}

// presets holds every preset and alias resolved, built once when the
// package initializes.
var presets = func() map[string]Policy {
	m := make(map[string]Policy, len(presetTable)+len(presetAliases))
	for _, p := range presetTable {
		pol, err := resolveExpr(p.expr)
		if err != nil {
			panic(fmt.Sprintf("exp: preset %q: %v", p.name, err))
		}
		pol.Name = p.name
		m[p.name] = pol
	}
	for alias, name := range presetAliases {
		m[alias] = m[name]
	}
	return m
}()

// fig6Variants counts the Figure 6 variants that end presetTable.
const fig6Variants = 8

func presetNames(table []struct{ name, expr string }) []string {
	out := make([]string, len(table))
	for i, p := range table {
		out[i] = p.name
	}
	return out
}

// PresetNames lists the preset policy names in presentation order (the
// Figure 6 ablation variants are named separately; see
// AblationVariantNames).
func PresetNames() []string { return presetNames(presetTable[:len(presetTable)-fig6Variants]) }

// AblationVariantNames lists the Figure 6 ablation variants in the
// paper's bar order, followed by the extension variants. Each name
// resolves as a preset expanding to dbrb over the variant's predictor.
func AblationVariantNames() []string { return presetNames(presetTable[len(presetTable)-fig6Variants:]) }
