package figures

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"sdbp/internal/obs"
	"sdbp/internal/runner"
	"sdbp/internal/stats"
)

// Env carries the cross-cutting execution machinery — cancellation,
// per-job timeout, checkpoint journal and progress callback — through
// every figure, table and sweep. One Env spans a whole campaign,
// accumulating every job failure so the caller can render a failure
// summary and choose its exit status, and memoizing every cell it ran
// so a simulation that several figures read runs once (see runCells). The zero-ish value from DefaultEnv runs
// everything inline with no timeout, checkpoint or progress, matching
// the pre-runner behavior; a fresh Env shares nothing with another.
type Env struct {
	// Ctx cancels the campaign; nil means context.Background().
	Ctx context.Context
	// Timeout bounds each job; 0 means no limit.
	Timeout time.Duration
	// Checkpoint journals completed cells for -resume; nil disables.
	Checkpoint *runner.Checkpoint
	// Progress receives per-job completion events.
	Progress func(runner.Event)
	// Obs, when non-nil, accumulates campaign metrics: runner job
	// accounting and the aggregate simulator counters of every
	// completed run (see package obs).
	Obs *obs.Registry
	// Workers bounds job concurrency for every sweep run under this
	// Env; 0 means the runner default (NumCPU). The wall-time
	// comparison tests pin it to 1 so sampled-vs-full ratios measure
	// serial simulation cost, independent of core count.
	Workers int

	mu       sync.Mutex
	failures []*runner.JobError
	// memo holds the result, or the *runner.JobError, of every cell
	// this Env ran, by cell key (see runCells); made on first use.
	memo map[string]any
}

// DefaultEnv returns an Env that runs everything with no timeout,
// checkpointing or progress reporting.
func DefaultEnv() *Env { return &Env{} }

func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

func (e *Env) options() runner.Options {
	return runner.Options{
		Timeout:    e.Timeout,
		Checkpoint: e.Checkpoint,
		Progress:   e.Progress,
		Obs:        e.Obs,
	}
}

func (e *Env) note(errs []*runner.JobError) {
	if len(errs) == 0 {
		return
	}
	e.mu.Lock()
	e.failures = append(e.failures, errs...)
	e.mu.Unlock()
}

// recall returns a memoized cell result or failure.
func (e *Env) recall(key string) (any, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.memo[key]
	return v, ok
}

// remember memoizes a cell's result or failure for the Env's
// lifetime.
func (e *Env) remember(key string, v any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.memo == nil {
		e.memo = make(map[string]any)
	}
	e.memo[key] = v
}

// Failures returns every job failure recorded so far, in completion
// order grouped by sweep.
func (e *Env) Failures() []*runner.JobError {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*runner.JobError, len(e.failures))
	copy(out, e.failures)
	return out
}

// Failed reports whether any job has failed.
func (e *Env) Failed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.failures) > 0
}

// runJobs executes one sweep's jobs under the Env's policy and records
// its failures on the Env.
func runJobs[T any](e *Env, jobs []runner.Job[T]) *runner.Set[T] {
	return runJobsLimited(e, jobs, 0)
}

// runJobsLimited is runJobs with a worker cap (for memory-heavy
// sweeps, like optimal-policy stream captures).
func runJobsLimited[T any](e *Env, jobs []runner.Job[T], workers int) *runner.Set[T] {
	opts := e.options()
	if workers == 0 {
		workers = e.Workers
	}
	opts.Workers = workers
	set := runner.Run(e.ctx(), jobs, opts)
	e.note(set.Failed())
	return set
}

// errVal is the in-band marker for a failed cell: NaN propagates
// through every normalization and ratio a renderer computes, and
// fmtVal prints it as ERR.
func errVal() float64 { return math.NaN() }

// fmtVal formats a cell value with the given precision; failed cells
// (NaN or Inf, from errVal or division by a failed baseline) render as
// ERR.
func fmtVal(format string, v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "ERR"
	}
	return fmt.Sprintf(format, v)
}

// finite drops NaN/Inf entries so aggregate rows (amean, gmean)
// summarize only the cells that completed.
func finite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// meanFinite is the arithmetic mean over completed cells; ERR (NaN)
// when none completed.
func meanFinite(xs []float64) float64 {
	xs = finite(xs)
	if len(xs) == 0 {
		return errVal()
	}
	return stats.Mean(xs)
}

// geoMeanFinite is the geometric mean over completed cells; ERR (NaN)
// when none completed.
func geoMeanFinite(xs []float64) float64 {
	xs = finite(xs)
	if len(xs) == 0 {
		return errVal()
	}
	return stats.GeoMean(xs)
}

// scaleOr1 normalizes a stream-scale for job keys (0 means 1).
func scaleOr1(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}
