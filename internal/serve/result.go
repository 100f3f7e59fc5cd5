package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"sdbp/internal/cache"
	"sdbp/internal/dbrb"
	"sdbp/internal/exp"
	"sdbp/internal/obs"
	"sdbp/internal/sampling"
)

// Addr returns the content address of a canonical spec expression: the
// hex SHA-256 of the fully-expanded exp.Resolved.String() form. Two
// submissions address the same result iff they resolve to the same
// canonical spec: JSON field order, a preset or the expression it
// names, and spec-level defaults left implicit or written out all
// resolve alike. A policy expression is not normalized inside, so
// reordered arguments or a default knob written out, as in
// dbrb(base=lru,pred=sampler(sets=32)), address a distinct result.
func Addr(canonicalSpec string) string {
	sum := sha256.Sum256([]byte(canonicalSpec))
	return hex.EncodeToString(sum[:])
}

// ValidAddr reports whether s has the shape of a content address (64
// lowercase hex digits), gating both the results endpoint and disk
// store paths.
func ValidAddr(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Result is one job's manifest: the deterministic record of a spec's
// simulation, returned to submitters and cached under its content
// address. Every field is a pure function of the canonical spec, so
// the marshaled form is byte-identical across runs, restarts and
// GOMAXPROCS settings — wall-clock fields deliberately do not appear.
type Result struct {
	// Schema versions the manifest layout.
	Schema int `json:"schema"`
	// Spec is the fully-expanded canonical spec that produced the
	// result; it alone reproduces the run.
	Spec string `json:"spec"`
	// Addr is the content address (SHA-256 of Spec).
	Addr string `json:"addr"`
	// Benches holds single-benchmark runs, in spec order.
	Benches []BenchResult `json:"benches,omitempty"`
	// Mixes holds quad-core mix runs, in spec order.
	Mixes []MixResult `json:"mixes,omitempty"`
	// Sampled holds sampled-simulation runs (specs with sampled=true),
	// in spec order; such specs populate this instead of Benches.
	Sampled []SampledBenchResult `json:"sampled,omitempty"`
}

// ResultSchema is the current Result layout version.
const ResultSchema = 1

// BenchResult is the deterministic slice of one sim.SingleResult.
type BenchResult struct {
	Name         string         `json:"name"`
	Instructions uint64         `json:"instructions"`
	Cycles       uint64         `json:"cycles"`
	IPC          float64        `json:"ipc"`
	MPKI         float64        `json:"mpki"`
	LLC          cache.Stats    `json:"llc"`
	Accuracy     *dbrb.Accuracy `json:"accuracy,omitempty"`
}

// SampledBenchResult is the deterministic slice of one
// sim.SampledResult: the full-run estimates with their error bounds,
// plus the plan that produced them (selector config, chosen intervals,
// weights), so a manifest is auditable without re-running the pilot.
// Every field is a pure function of the canonical spec — the pilot,
// selection and replay are all deterministic — so sampled manifests
// byte-compare like exact ones.
type SampledBenchResult struct {
	Name     string            `json:"name"`
	Estimate sampling.Estimate `json:"estimate"`
	Plan     sampling.Plan     `json:"plan"`
}

// MixResult is the deterministic slice of one sim.MulticoreResult.
type MixResult struct {
	Name         string      `json:"name"`
	IPC          [4]float64  `json:"ipc"`
	Instructions [4]uint64   `json:"instructions"`
	Cycles       uint64      `json:"cycles"`
	MPKI         float64     `json:"mpki"`
	LLC          cache.Stats `json:"llc"`
}

// Marshal renders the manifest in its wire form: indented,
// key-order-stable JSON with a trailing newline. This is the exact
// byte string stored in the cache and returned to every submitter, so
// equality of manifests is equality of bytes.
func (r Result) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ExecuteSpec runs every workload and mix of a resolved spec and
// assembles the manifest. The context is checked between runs —
// individual simulations are not preemptible — so a canceled job
// stops at the next boundary. Live simulator counters are folded into
// reg at each run boundary, keeping the per-access path metric-free.
// progress, when non-nil, is called after each completed work unit
// with (done, total, name) — the service turns these into streamed
// interval-progress events.
func ExecuteSpec(ctx context.Context, r *exp.Resolved, reg *obs.Registry, progress func(done, total int, name string)) (Result, error) {
	spec := r.String()
	out := Result{Schema: ResultSchema, Spec: spec, Addr: Addr(spec)}
	total := len(r.Workloads) + len(r.Mixes)
	if r.Sampled {
		total = len(r.Workloads)
	}
	done := 0
	step := func(name string) {
		done++
		if progress != nil {
			progress(done, total, name)
		}
	}
	if r.Sampled {
		for _, w := range r.Workloads {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			sr, plan, err := r.RunBenchSampled(w)
			if err != nil {
				return Result{}, err
			}
			out.Sampled = append(out.Sampled, SampledBenchResult{
				Name:     sr.Benchmark,
				Estimate: sr.Estimate,
				Plan:     *plan,
			})
			step(sr.Benchmark)
		}
		return out, nil
	}
	for _, w := range r.Workloads {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		sr := r.RunBench(w)
		sr.ObserveInto(reg)
		out.Benches = append(out.Benches, BenchResult{
			Name:         sr.Benchmark,
			Instructions: sr.Instructions,
			Cycles:       sr.Cycles,
			IPC:          sr.IPC,
			MPKI:         sr.MPKI,
			LLC:          sr.LLC,
			Accuracy:     sr.Accuracy,
		})
		step(sr.Benchmark)
	}
	for _, m := range r.Mixes {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		mr, err := r.RunMix(m)
		if err != nil {
			return Result{}, err
		}
		mr.ObserveInto(reg)
		out.Mixes = append(out.Mixes, MixResult{
			Name:         mr.MixName,
			IPC:          mr.IPC,
			Instructions: mr.Instructions,
			Cycles:       mr.Cycles,
			MPKI:         mr.MPKI,
			LLC:          mr.LLC,
		})
		step(mr.MixName)
	}
	return out, nil
}
