package exp

import (
	"fmt"
	"strings"

	"sdbp/internal/cache"
	"sdbp/internal/dbrb"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/policy/ship"
	"sdbp/internal/predictor"
)

// Policy is a resolved LLC management technique: a display name, the
// canonical expression of the configuration its factory builds, and
// that factory (policies hold mutable state and must never be shared
// across simulations).
type Policy struct {
	// Name is the display name: the preset's paper abbreviation
	// ("Sampler", "Random CDBP") or, for a raw expression, its
	// canonical expression.
	Name string
	// Expr is the canonical expression of the built configuration (see
	// argSet): every spelling of one configuration has the same Expr,
	// and two configurations never share one. Figure cell keys, sdbpd
	// content addresses and the manifest's spec echo all read it.
	Expr string
	// Make builds a fresh policy for a cache shared by threads threads.
	Make func(threads int) cache.Policy
}

// ResolvePolicy resolves a preset name (see PresetNames and
// AblationVariantNames, plus the historical CLI aliases like
// "RandomSampler") or a policy expression like
// "dbrb(base=random,pred=sampler(threshold=6))" into a validated
// factory. All validation happens here; calling Make never fails. The
// result's Expr is the canonical expression its factory rendered, so
// every spelling of one configuration resolves to one identity:
// "dbrb(pred=sampler,base=lru)" and "Sampler" both carry
// "dbrb(base=lru,pred=sampler)". Presets are resolved once, when the
// package initializes.
func ResolvePolicy(nameOrExpr string) (Policy, error) {
	if p, ok := presets[nameOrExpr]; ok {
		return p, nil
	}
	return resolveExpr(nameOrExpr)
}

// resolveExpr parses and builds a policy expression, named by its
// canonical expression.
func resolveExpr(s string) (Policy, error) {
	e, err := ParseExpr(s)
	if err != nil {
		return Policy{}, err
	}
	mk, canon, err := buildPolicy(e)
	if err != nil {
		return Policy{}, err
	}
	c := canon.String()
	return Policy{Name: c, Expr: c, Make: mk}, nil
}

// MustResolvePolicy is ResolvePolicy for package-literal names and
// expressions; it panics on error.
func MustResolvePolicy(nameOrExpr string) Policy {
	p, err := ResolvePolicy(nameOrExpr)
	if err != nil {
		panic(err)
	}
	return p
}

// PolicyNames lists the registered policy expression names, sorted.
func PolicyNames() []string {
	return []string{"dbrb", "dip", "duel", "dueling", "lru", "nru", "plru", "random", "rrip", "ship", "srrip", "tadip"}
}

// PredictorNames lists the registered predictor expression names,
// sorted.
func PredictorNames() []string {
	return []string{"aip", "bursts", "counting", "never", "reftrace", "reuse", "sampler", "samplingcounting", "skewed", "timebased"}
}

// buildPolicy validates a policy expression and returns its factory and
// its canonical expression; on error, neither is meaningful.
func buildPolicy(e Expr) (func(threads int) cache.Policy, Expr, error) {
	switch e.Name {
	case "lru":
		return plain(e, func(int) cache.Policy { return policy.NewLRU() })
	case "plru":
		return plain(e, func(int) cache.Policy { return policy.NewPLRU() })
	case "nru":
		return plain(e, func(int) cache.Policy { return policy.NewNRU() })
	case "srrip":
		return plain(e, func(int) cache.Policy { return policy.NewSRRIP() })
	case "random":
		args := newArgs(e)
		seed := args.Uint64("seed", RandomSeed)
		canon, err := args.finish()
		return func(int) cache.Policy { return policy.NewRandom(seed) }, canon, err
	case "dip":
		args := newArgs(e)
		seed := args.Uint64("seed", DIPSeed)
		canon, err := args.finish()
		return func(int) cache.Policy { return policy.NewDIP(seed) }, canon, err
	case "tadip":
		args := newArgs(e)
		seed := args.Uint64("seed", TADIPSeed)
		canon, err := args.finish()
		return func(threads int) cache.Policy { return policy.NewTADIP(threads, seed) }, canon, err
	case "rrip":
		args := newArgs(e)
		seed := args.Uint64("seed", DRRIPSeed)
		canon, err := args.finish()
		return func(threads int) cache.Policy { return policy.NewDRRIP(threads, seed) }, canon, err
	case "ship":
		cfg, canon, err := shipConfig(e)
		return func(int) cache.Policy { return ship.New(cfg) }, canon, err
	case "duel":
		args := newArgs(e)
		mkA := component(args, "a", "lru", buildPolicy)
		mkB := component(args, "b", "dbrb(base=lru,pred=reuse)", buildPolicy)
		leaders := args.Int("leaders", 32)
		psel := args.Int("psel", 10)
		force := []policy.Force{policy.ForceNone, policy.ForceA, policy.ForceB}[args.Enum("force", "none", "a", "b")]
		canon, err := args.finish()
		if err == nil && leaders < 1 {
			err = fmt.Errorf("exp: duel: need at least 1 leader set per side (got %d)", leaders)
		}
		if err == nil && (psel < 1 || psel > 30) {
			err = fmt.Errorf("exp: duel: PSEL width %d outside [1, 30] bits", psel)
		}
		return func(threads int) cache.Policy {
			return policy.NewAB(mkA(threads), mkB(threads), leaders, psel, force)
		}, canon, err
	case "dbrb", "dueling":
		args := newArgs(e)
		mkBase := component(args, "base", "lru", buildPolicy)
		mkPred := component(args, "pred", "sampler", buildPredictor)
		canon, err := args.finish()
		if e.Name == "dueling" {
			return func(threads int) cache.Policy {
				return dbrb.NewDueling(mkBase(threads), mkPred())
			}, canon, err
		}
		return func(threads int) cache.Policy {
			return dbrb.New(mkBase(threads), mkPred())
		}, canon, err
	}
	return nil, Expr{}, fmt.Errorf("exp: unknown policy %q; registered policies: %s",
		e.Name, strings.Join(PolicyNames(), ", "))
}

// buildPredictor validates a predictor expression and returns its
// factory and its canonical expression; on error, neither is
// meaningful.
func buildPredictor(e Expr) (func() predictor.Predictor, Expr, error) {
	switch e.Name {
	case "reftrace":
		return plain(e, func() predictor.Predictor { return predictor.NewRefTrace() })
	case "counting":
		return plain(e, func() predictor.Predictor { return predictor.NewCounting() })
	case "bursts":
		return plain(e, func() predictor.Predictor { return predictor.NewBursts() })
	case "aip":
		return plain(e, func() predictor.Predictor { return predictor.NewAIP() })
	case "samplingcounting":
		return plain(e, func() predictor.Predictor { return predictor.NewSamplingCounting() })
	case "timebased":
		return plain(e, func() predictor.Predictor { return predictor.NewTimeBased() })
	case "sampler":
		cfg, canon, err := samplerConfig(e)
		return func() predictor.Predictor { return predictor.NewSampler(cfg) }, canon, err
	case "skewed":
		cfg, canon, err := skewedConfig(e)
		return func() predictor.Predictor { return predictor.NewSkewed(cfg) }, canon, err
	case "reuse":
		cfg, canon, err := reuseConfig(e)
		return func() predictor.Predictor { return predictor.NewReuse(cfg) }, canon, err
	case "never":
		return plain(e, func() predictor.Predictor { return predictor.NewNever() })
	}
	return nil, Expr{}, fmt.Errorf("exp: unknown predictor %q; registered predictors: %s",
		e.Name, strings.Join(PredictorNames(), ", "))
}

// samplerConfig applies a sampler expression's parameters over the
// paper's defaults and validates the result (NewSampler panics on
// geometry errors; user-supplied expressions must fail with an error
// instead).
func samplerConfig(e Expr) (predictor.SamplerConfig, Expr, error) {
	cfg := predictor.DefaultSamplerConfig()
	args := newArgs(e)
	cfg.UseSampler = args.Bool("sampling", cfg.UseSampler)
	cfg.SamplerSets = args.Int("sets", cfg.SamplerSets)
	cfg.SamplerAssoc = args.Int("assoc", cfg.SamplerAssoc)
	cfg.Tables = args.Int("tables", cfg.Tables)
	cfg.TableEntries = args.Int("entries", cfg.TableEntries)
	cfg.Threshold = args.Int("threshold", cfg.Threshold)
	canon, err := args.finish()
	if err != nil {
		return cfg, canon, err
	}
	if cfg.Tables < 1 || cfg.TableEntries < 2 || !mem.IsPow2(cfg.TableEntries) {
		return cfg, canon, fmt.Errorf("exp: sampler: invalid tables %d x %d entries (need tables >= 1, entries a power of two >= 2)",
			cfg.Tables, cfg.TableEntries)
	}
	if cfg.UseSampler && (cfg.SamplerSets < 1 || cfg.SamplerAssoc < 1 || !mem.IsPow2(cfg.SamplerSets)) {
		return cfg, canon, fmt.Errorf("exp: sampler: invalid geometry %d sets x %d ways (need assoc >= 1, sets a power of two >= 1)",
			cfg.SamplerSets, cfg.SamplerAssoc)
	}
	return cfg, canon, nil
}

// skewedConfig applies a skewed expression's parameters over the
// defaults and validates the result (NewSkewed panics on geometry
// errors; user-supplied expressions must fail with an error instead).
func skewedConfig(e Expr) (predictor.SkewedConfig, Expr, error) {
	cfg := predictor.DefaultSkewedConfig()
	args := newArgs(e)
	cfg.SamplerSets = args.Int("sets", cfg.SamplerSets)
	cfg.SamplerAssoc = args.Int("assoc", cfg.SamplerAssoc)
	cfg.Tables = args.Int("tables", cfg.Tables)
	cfg.TableEntries = args.Int("entries", cfg.TableEntries)
	cfg.TagBits = args.Int("tags", cfg.TagBits)
	cfg.Threshold = args.Int("threshold", cfg.Threshold)
	canon, err := args.finish()
	if err != nil {
		return cfg, canon, err
	}
	if cfg.Tables < 1 || cfg.TableEntries < 2 || !mem.IsPow2(cfg.TableEntries) {
		return cfg, canon, fmt.Errorf("exp: skewed: invalid tables %d x %d entries (need tables >= 1, entries a power of two >= 2)",
			cfg.Tables, cfg.TableEntries)
	}
	if cfg.TagBits < 1 || cfg.TagBits > 15 {
		return cfg, canon, fmt.Errorf("exp: skewed: tag width %d outside [1, 15] bits", cfg.TagBits)
	}
	if cfg.SamplerSets < 1 || cfg.SamplerAssoc < 1 || !mem.IsPow2(cfg.SamplerSets) {
		return cfg, canon, fmt.Errorf("exp: skewed: invalid sampler geometry %d sets x %d ways (need assoc >= 1, sets a power of two >= 1)",
			cfg.SamplerSets, cfg.SamplerAssoc)
	}
	return cfg, canon, nil
}

// reuseConfig applies a reuse expression's parameters over the defaults
// and validates the result.
func reuseConfig(e Expr) (predictor.ReuseConfig, Expr, error) {
	cfg := predictor.DefaultReuseConfig()
	args := newArgs(e)
	cfg.Tables = args.Int("tables", cfg.Tables)
	cfg.TableEntries = args.Int("entries", cfg.TableEntries)
	cfg.Threshold = args.Int("threshold", cfg.Threshold)
	canon, err := args.finish()
	if err != nil {
		return cfg, canon, err
	}
	if cfg.Tables < 1 || cfg.TableEntries < 2 || !mem.IsPow2(cfg.TableEntries) {
		return cfg, canon, fmt.Errorf("exp: reuse: invalid tables %d x %d entries (need tables >= 1, entries a power of two >= 2)",
			cfg.Tables, cfg.TableEntries)
	}
	if cfg.Threshold < 1 || cfg.Threshold > 3*cfg.Tables {
		return cfg, canon, fmt.Errorf("exp: reuse: threshold %d outside [1, %d]", cfg.Threshold, 3*cfg.Tables)
	}
	return cfg, canon, nil
}

// shipConfig applies a ship expression's parameters over the defaults
// and validates the result.
func shipConfig(e Expr) (ship.Config, Expr, error) {
	cfg := ship.DefaultConfig()
	args := newArgs(e)
	cfg.SigBits = args.Int("sigbits", cfg.SigBits)
	cfg.CounterMax = args.Int("max", cfg.CounterMax)
	cfg.Init = args.Int("init", cfg.Init)
	cfg.SampledSets = args.Int("samples", cfg.SampledSets)
	cfg.Train = []ship.TrainMode{ship.TrainAll, ship.TrainSampled, ship.TrainOff}[args.Enum("train", "all", "sampled", "off")]
	canon, err := args.finish()
	if err != nil {
		return cfg, canon, err
	}
	if cfg.SigBits < 1 || cfg.SigBits > 24 {
		return cfg, canon, fmt.Errorf("exp: ship: signature width %d outside [1, 24] bits", cfg.SigBits)
	}
	if cfg.CounterMax < 1 || cfg.CounterMax > 255 {
		return cfg, canon, fmt.Errorf("exp: ship: counter max %d outside [1, 255]", cfg.CounterMax)
	}
	if cfg.Init < 0 || cfg.Init > cfg.CounterMax {
		return cfg, canon, fmt.Errorf("exp: ship: initial counter %d outside [0, %d]", cfg.Init, cfg.CounterMax)
	}
	if cfg.SampledSets < 1 || !mem.IsPow2(cfg.SampledSets) {
		return cfg, canon, fmt.Errorf("exp: ship: sampled-set count %d must be a power of two >= 1", cfg.SampledSets)
	}
	return cfg, canon, nil
}

// NewPredictor resolves a predictor expression ("sampler(threshold=6)",
// "counting") and builds one instance.
func NewPredictor(expr string) (predictor.Predictor, error) {
	e, err := ParseExpr(expr)
	if err != nil {
		return nil, err
	}
	mk, _, err := buildPredictor(e)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

// MustPredictor is NewPredictor for package-literal expressions.
func MustPredictor(expr string) predictor.Predictor {
	p, err := NewPredictor(expr)
	if err != nil {
		panic(err)
	}
	return p
}

// DBRBFactory resolves a preset name or expression whose root is a
// dbrb wrapper into a typed factory, for callers that need the
// dead-block policy's own interface (the victim-cache study consumes
// its predictions directly).
func DBRBFactory(nameOrExpr string) (func() *dbrb.Policy, error) {
	p, err := ResolvePolicy(nameOrExpr)
	if err != nil {
		return nil, err
	}
	if _, ok := p.Make(1).(*dbrb.Policy); !ok {
		return nil, fmt.Errorf("exp: %q is not a dbrb policy", nameOrExpr)
	}
	return func() *dbrb.Policy { return p.Make(1).(*dbrb.Policy) }, nil
}

// MustDBRBFactory is DBRBFactory for package-literal expressions.
func MustDBRBFactory(nameOrExpr string) func() *dbrb.Policy {
	mk, err := DBRBFactory(nameOrExpr)
	if err != nil {
		panic(err)
	}
	return mk
}

// Geometry resolves a cache geometry expression — llc(mb=4),
// llc(kb=512,ways=8) — into a cache configuration. Exactly one of mb
// and kb sizes the cache; ways defaults to the paper's 16.
func Geometry(expr string) (cache.Config, error) {
	e, err := ParseExpr(expr)
	if err != nil {
		return cache.Config{}, err
	}
	if e.Name != "llc" {
		return cache.Config{}, fmt.Errorf("exp: unknown geometry %q (want llc(mb=N) or llc(kb=N))", e.Name)
	}
	args := newArgs(e)
	mb := args.Int("mb", 0)
	kb := args.Int("kb", 0)
	ways := args.Int("ways", 16)
	if _, err := args.finish(); err != nil {
		return cache.Config{}, err
	}
	if (mb > 0) == (kb > 0) {
		return cache.Config{}, fmt.Errorf("exp: llc needs exactly one of mb and kb (got mb=%d, kb=%d)", mb, kb)
	}
	size := mb << 20
	if kb > 0 {
		size = kb << 10
	}
	if ways < 1 {
		return cache.Config{}, fmt.Errorf("exp: llc ways must be >= 1 (got %d)", ways)
	}
	cfg := cache.Config{Name: "LLC", SizeBytes: size, Ways: ways}
	if sets := cfg.Sets(); sets < 1 || !mem.IsPow2(sets) {
		return cache.Config{}, fmt.Errorf("exp: llc geometry %s yields %d sets; need a positive power of two", expr, sets)
	}
	return cfg, nil
}

// MustGeometry is Geometry for package-literal expressions.
func MustGeometry(expr string) cache.Config {
	cfg, err := Geometry(expr)
	if err != nil {
		panic(err)
	}
	return cfg
}
