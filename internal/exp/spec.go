package exp

import (
	"fmt"
	"strconv"
	"strings"

	"sdbp/internal/cache"
	"sdbp/internal/hier"
	"sdbp/internal/sampling"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// Spec declares one experiment: which policy, over which workloads
// and/or quad-core mixes, on what cache geometry, at what stream scale.
// A Spec is data — JSON for files (see cmd/experiments -spec) and a
// compact one-line text form for logs and manifests:
//
//	policy=dbrb(base=lru,pred=sampler);workloads=456.hmmer,470.lbm;scale=0.1
//
// The zero values mean "default": Cores 1 (4 for mixes), LLC the
// paper's 2MB-per-core 16-way geometry, Scale 1.0. Resolve validates
// the spec and binds it to runnable components.
type Spec struct {
	// Policy is a preset name ("Sampler") or expression
	// ("dbrb(base=random,pred=counting)"). Required.
	Policy string `json:"policy"`
	// Workloads are benchmark names, or the expansions "subset" (the
	// paper's 19-benchmark memory-intensive subset) and "all".
	Workloads []string `json:"workloads,omitempty"`
	// Mixes are quad-core mix names ("mix1".."mix10") or "all".
	Mixes []string `json:"mixes,omitempty"`
	// Cores is the core count sharing the LLC in single-benchmark runs
	// (it sizes the default geometry and is passed to thread-aware
	// policies). 0 means 1. Mix runs are always quad-core.
	Cores int `json:"cores,omitempty"`
	// LLC overrides the cache geometry: "llc(mb=4)", "llc(kb=512,ways=8)".
	// Empty means 2MB per core, 16 ways.
	LLC string `json:"llc,omitempty"`
	// Scale multiplies every reference stream's default length; 0 means 1.0.
	Scale float64 `json:"scale,omitempty"`
	// Sampled opts single-benchmark runs into representative-interval
	// sampled simulation (package sampling): a pilot run's interval
	// telemetry is clustered, representative intervals are replayed
	// with warm-up, and results are estimates with error bounds instead
	// of exact full-run counters. Mixes cannot be sampled.
	Sampled bool `json:"sampled,omitempty"`
	// SampleInterval is the pilot telemetry granularity in retired
	// instructions; 0 means DefaultSampleInterval.
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	// SampleClusters caps the representative intervals per workload;
	// 0 means sampling.DefaultClusters.
	SampleClusters int `json:"sample_clusters,omitempty"`
	// SampleWarmup is the functional-warming window before each
	// measured interval, as a fraction of the interval length; 0 means
	// sampling.DefaultWarmupFrac, negative means no warm-up.
	SampleWarmup float64 `json:"sample_warmup,omitempty"`
}

// String renders the compact text form: semicolon-separated key=value
// fields in fixed order, zero-valued fields omitted. ParseSpec inverts
// it exactly.
func (s Spec) String() string {
	var fields []string
	add := func(key, val string) { fields = append(fields, key+"="+val) }
	if s.Policy != "" {
		add("policy", s.Policy)
	}
	if len(s.Workloads) > 0 {
		add("workloads", strings.Join(s.Workloads, ","))
	}
	if len(s.Mixes) > 0 {
		add("mixes", strings.Join(s.Mixes, ","))
	}
	if s.Cores != 0 {
		add("cores", strconv.Itoa(s.Cores))
	}
	if s.LLC != "" {
		add("llc", s.LLC)
	}
	if s.Scale != 0 {
		add("scale", strconv.FormatFloat(s.Scale, 'g', -1, 64))
	}
	if s.Sampled {
		add("sampled", "true")
	}
	if s.SampleInterval != 0 {
		add("sample_interval", strconv.FormatUint(s.SampleInterval, 10))
	}
	if s.SampleClusters != 0 {
		add("sample_clusters", strconv.Itoa(s.SampleClusters))
	}
	if s.SampleWarmup != 0 {
		add("sample_warmup", strconv.FormatFloat(s.SampleWarmup, 'g', -1, 64))
	}
	return strings.Join(fields, ";")
}

// ParseSpec parses the compact text form produced by Spec.String.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	seen := map[string]bool{}
	for _, field := range strings.Split(s, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("exp: spec field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return Spec{}, fmt.Errorf("exp: duplicate spec field %q", key)
		}
		seen[key] = true
		switch key {
		case "policy":
			spec.Policy = val
		case "workloads":
			spec.Workloads = splitNames(val)
		case "mixes":
			spec.Mixes = splitNames(val)
		case "cores":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Spec{}, fmt.Errorf("exp: spec cores=%q is not an integer", val)
			}
			spec.Cores = n
		case "llc":
			spec.LLC = val
		case "scale":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("exp: spec scale=%q is not a number", val)
			}
			spec.Scale = f
		case "sampled":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return Spec{}, fmt.Errorf("exp: spec sampled=%q is not a boolean", val)
			}
			spec.Sampled = b
		case "sample_interval":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("exp: spec sample_interval=%q is not a non-negative integer", val)
			}
			spec.SampleInterval = n
		case "sample_clusters":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Spec{}, fmt.Errorf("exp: spec sample_clusters=%q is not an integer", val)
			}
			spec.SampleClusters = n
		case "sample_warmup":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("exp: spec sample_warmup=%q is not a number", val)
			}
			spec.SampleWarmup = f
		default:
			return Spec{}, fmt.Errorf("exp: unknown spec field %q (valid: policy, workloads, mixes, cores, llc, scale, sampled, sample_interval, sample_clusters, sample_warmup)", key)
		}
	}
	return spec, nil
}

func splitNames(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// Resolved is a validated Spec bound to runnable components.
type Resolved struct {
	// Policy is the resolved policy factory.
	Policy Policy
	// Workloads are the expanded single-benchmark runs.
	Workloads []workloads.Workload
	// Mixes are the expanded quad-core runs.
	Mixes []workloads.Mix
	// Cores is the single-benchmark core count (>= 1).
	Cores int
	// Scale is the stream length multiplier (> 0).
	Scale float64
	// LLC is the explicit geometry; LLCSet reports whether the spec
	// overrode the default (use LLCFor to pick the right one).
	LLC    cache.Config
	LLCSet bool
	// Sampled marks the spec as a sampled-simulation request;
	// SampleInterval and SampleConfig are the effective selector knobs
	// with defaults applied and any negative warm-up as -1, so every
	// spelling of one plan reads the same values (see RunBenchSampled).
	Sampled        bool
	SampleInterval uint64
	SampleConfig   sampling.Config
}

// Resolve validates the spec and binds every name to its component. A
// spec must name a policy and select at least one workload or mix.
func (s Spec) Resolve() (*Resolved, error) {
	if s.Policy == "" {
		return nil, fmt.Errorf("exp: spec names no policy")
	}
	pol, err := ResolvePolicy(s.Policy)
	if err != nil {
		return nil, err
	}
	r := &Resolved{Policy: pol, Cores: s.Cores, Scale: s.Scale}
	if r.Cores == 0 {
		r.Cores = 1
	}
	if r.Cores < 1 {
		return nil, fmt.Errorf("exp: spec cores must be >= 1 (got %d)", s.Cores)
	}
	if r.Scale == 0 {
		r.Scale = 1
	}
	if !(r.Scale > 0) {
		return nil, fmt.Errorf("exp: spec scale must be > 0 (got %g)", s.Scale)
	}

	for _, name := range s.Workloads {
		switch name {
		case "all":
			r.Workloads = append(r.Workloads, workloads.All()...)
		case "subset":
			r.Workloads = append(r.Workloads, workloads.Subset()...)
		default:
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			r.Workloads = append(r.Workloads, w)
		}
	}
	for _, name := range s.Mixes {
		if name == "all" {
			r.Mixes = append(r.Mixes, workloads.Mixes()...)
			continue
		}
		m, err := mixByName(name)
		if err != nil {
			return nil, err
		}
		r.Mixes = append(r.Mixes, m)
	}
	if len(r.Workloads) == 0 && len(r.Mixes) == 0 {
		return nil, fmt.Errorf("exp: spec selects no workloads or mixes")
	}
	if s.LLC != "" {
		cfg, err := Geometry(s.LLC)
		if err != nil {
			return nil, err
		}
		r.LLC, r.LLCSet = cfg, true
	}
	if !s.Sampled && (s.SampleInterval != 0 || s.SampleClusters != 0 || s.SampleWarmup != 0) {
		return nil, fmt.Errorf("exp: sample_* fields require sampled=true")
	}
	if s.Sampled {
		if len(r.Mixes) > 0 {
			return nil, fmt.Errorf("exp: sampled simulation supports single-benchmark runs only, not mixes")
		}
		if s.SampleClusters < 0 {
			return nil, fmt.Errorf("exp: spec sample_clusters must be >= 0 (got %d)", s.SampleClusters)
		}
		r.Sampled = true
		r.SampleInterval = s.SampleInterval
		if r.SampleInterval == 0 {
			r.SampleInterval = DefaultSampleInterval
		}
		r.SampleConfig = sampling.Config{Clusters: s.SampleClusters, WarmupFrac: s.SampleWarmup}
		if r.SampleConfig.Clusters == 0 {
			r.SampleConfig.Clusters = sampling.DefaultClusters
		}
		switch {
		case r.SampleConfig.WarmupFrac < 0:
			r.SampleConfig.WarmupFrac = -1
		case r.SampleConfig.WarmupFrac == 0:
			r.SampleConfig.WarmupFrac = sampling.DefaultWarmupFrac
		}
	}
	return r, nil
}

// mixByName resolves a quad-core mix name.
func mixByName(name string) (workloads.Mix, error) {
	var names []string
	for _, m := range workloads.Mixes() {
		if m.Name == name {
			return m, nil
		}
		names = append(names, m.Name)
	}
	return workloads.Mix{}, fmt.Errorf("exp: unknown mix %q; valid mixes: %s", name, strings.Join(names, ", "))
}

// LLCFor returns the run's cache geometry: the explicit override, or
// the paper's default for the given core count.
func (r *Resolved) LLCFor(cores int) cache.Config {
	if r.LLCSet {
		return r.LLC
	}
	return hier.LLCConfig(cores)
}

// String renders the fully-expanded canonical spec — policy as its
// canonical expression, workloads and mixes listed by name, every
// default made explicit. This is the form the run manifest echoes.
// Fields no run reads stay out: a mixes-only spec has no cores (mixes
// are quad-core), and its llc is the one the mixes run at.
func (r *Resolved) String() string {
	s := Spec{Policy: r.Policy.Expr, Scale: r.Scale}
	for _, w := range r.Workloads {
		s.Workloads = append(s.Workloads, w.Name)
	}
	for _, m := range r.Mixes {
		s.Mixes = append(s.Mixes, m.Name)
	}
	llc := r.LLCFor(4)
	if len(r.Workloads) > 0 {
		s.Cores = r.Cores
		// Workloads run at LLCFor(Cores) and mixes at LLCFor(4). When a
		// spec with both sets no geometry and those defaults differ, no
		// one llc names its runs, so the canonical form leaves it out
		// and resolves back to both defaults.
		if len(r.Mixes) == 0 {
			llc = r.LLCFor(r.Cores)
		} else if llc != r.LLCFor(r.Cores) {
			llc = cache.Config{}
		}
	}
	switch {
	case llc.SizeBytes == 0:
	case llc.SizeBytes%(1<<20) == 0:
		s.LLC = fmt.Sprintf("llc(mb=%d,ways=%d)", llc.SizeBytes>>20, llc.Ways)
	default:
		s.LLC = fmt.Sprintf("llc(kb=%d,ways=%d)", llc.SizeBytes>>10, llc.Ways)
	}
	if r.Sampled {
		s.Sampled = true
		s.SampleInterval = r.SampleInterval
		s.SampleClusters = r.SampleConfig.Clusters
		s.SampleWarmup = r.SampleConfig.WarmupFrac
	}
	return s.String()
}

// RunBench simulates one of the spec's workloads under the spec's
// policy via sim.RunSingle.
func (r *Resolved) RunBench(w workloads.Workload) sim.SingleResult {
	opts := sim.SingleOptions{Scale: r.Scale, LLC: r.LLCFor(r.Cores)}
	return sim.RunSingle(w, r.Policy.Make(r.Cores), opts)
}

// RunMix simulates one of the spec's quad-core mixes under the spec's
// policy via sim.RunMulticore.
func (r *Resolved) RunMix(m workloads.Mix) (sim.MulticoreResult, error) {
	return sim.RunMulticore(m, r.Policy.Make(4), sim.MulticoreOptions{Scale: r.Scale, LLC: r.LLCFor(4)})
}

// WorkloadNames returns the resolved workload names, and MixNames the
// resolved mix names, both in spec order (no sorting — order is the
// run order).
func (r *Resolved) WorkloadNames() []string {
	var out []string
	for _, w := range r.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// MixNames returns the resolved mix names in spec order.
func (r *Resolved) MixNames() []string {
	var out []string
	for _, m := range r.Mixes {
		out = append(out, m.Name)
	}
	return out
}
