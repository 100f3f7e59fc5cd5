package exp

// Sampled execution for declarative specs: the pilot run (full
// simulation with interval telemetry), interval selection and window
// materialization are cached per workload/scale/geometry/selector
// configuration in the process memo, so a campaign that sweeps N
// policies over the same workloads pays the pilot and the generation
// pass once and replays the materialized windows N times. That
// amortization is what makes sampled sdbpd jobs cheap: the replay
// simulates ~a tenth of the stream per policy. The memo's byte budget
// bounds how many pilots stay resident; an evicted one is piloted
// again when next requested.

import (
	"fmt"

	"sdbp/internal/cache"
	"sdbp/internal/memo"
	"sdbp/internal/sampling"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// DefaultSampleInterval is the pilot telemetry granularity, in retired
// instructions, when a sampled spec does not set sample_interval.
const DefaultSampleInterval = 50_000

// PilotPolicy is the policy sampled pilots run under: the paper's
// sampling dead block predictor, so the dead-prediction feature
// dimensions of the interval vectors are populated. The plan replays
// against any policy afterwards.
const PilotPolicy = "Sampler"

// pilot is one cached pilot: the selected plan and the materialized
// warm-up/measure windows, replayed read-only by every policy.
type pilot struct {
	plan sampling.Plan
	mat  *sim.Materialized
}

// pilots holds pilots in the process memo, keyed by sampledKey. An
// evicted pilot is piloted again on its next request; its plan and
// windows are deterministic, so the replayed result is the same.
var pilots = memo.New[string, *pilot]()

// sampledKey identifies a pilot: everything that shapes the plan and
// the windows. The target policy is deliberately absent — that is the
// amortization.
func sampledKey(w workloads.Workload, scale float64, llc cache.Config, interval uint64, cfg sampling.Config) string {
	return fmt.Sprintf("%s|%g|%d/%d|%d|%d|%g|%g",
		w.Name, scale, llc.SizeBytes, llc.Ways, interval,
		cfg.Clusters, cfg.WarmupFrac, cfg.BiasRel)
}

// sampledPlan returns the cached (or freshly piloted) plan and windows
// for one workload under the resolved spec's sampling knobs.
func (r *Resolved) sampledPlan(w workloads.Workload) (*sampling.Plan, *sim.Materialized, error) {
	llc := r.LLCFor(r.Cores)
	p, err := pilots.Do(sampledKey(w, r.Scale, llc, r.SampleInterval, r.SampleConfig), func() (*pilot, int, error) {
		opts := sim.SingleOptions{Scale: r.Scale, LLC: llc}
		plan, err := sim.SelectPlan(w, MustResolvePolicy(PilotPolicy).Make(r.Cores), opts, r.SampleInterval, r.SampleConfig)
		if err != nil {
			return nil, 0, err
		}
		p := &pilot{plan: plan}
		if p.mat, err = sim.MaterializeSampled(w, &p.plan, r.Scale); err != nil {
			return nil, 0, err
		}
		return p, p.bytes(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &p.plan, p.mat, nil
}

// bytes is the pilot's memo size: the plan's picks and the windows'
// records.
func (p *pilot) bytes() int {
	n := memo.SliceBytes(p.plan.Picks) + memo.SliceBytes(p.mat.Windows)
	for _, win := range p.mat.Windows {
		n += memo.SliceBytes(win.Warm) + memo.SliceBytes(win.Measure)
	}
	return n
}

// RunBenchSampled runs one of the spec's workloads in sampled mode:
// pilot + selection + materialization (cached across policies and
// calls), then a warm-up/measure replay under the spec's policy. The
// returned plan is the cached selection the estimate was built from.
func (r *Resolved) RunBenchSampled(w workloads.Workload) (sim.SampledResult, *sampling.Plan, error) {
	if !r.Sampled {
		return sim.SampledResult{}, nil, fmt.Errorf("exp: spec did not request sampled simulation")
	}
	plan, mat, err := r.sampledPlan(w)
	if err != nil {
		return sim.SampledResult{}, nil, err
	}
	opts := sim.SingleOptions{Scale: r.Scale, LLC: r.LLCFor(r.Cores)}
	res, err := sim.RunSampledTrace(mat, r.Policy.Make(r.Cores), opts)
	if err != nil {
		return sim.SampledResult{}, nil, err
	}
	return res, plan, nil
}
