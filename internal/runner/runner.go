// Package runner is the shared job-execution engine behind every
// figure, table and sweep in the evaluation harness. It replaces the
// hand-rolled sync.WaitGroup fan-outs that used to live in each figure
// with one pool that provides:
//
//   - bounded workers with context cancellation and a per-job timeout,
//   - panic isolation: a recovered job becomes a structured JobError
//     (job key, stack, duration) instead of crashing the process,
//   - deterministic checkpointing: completed results are journaled to
//     a JSON-lines file keyed by job key, so an interrupted campaign
//     resumes by skipping finished cells,
//   - progress events (jobs done/total, ETA) for long campaigns.
//
// Jobs are deterministic simulations, so a job key fully identifies
// its result: the figures package keys each job by the canonical
// identity of its cell (kind, workload, policy expression, threads,
// stream scale and cache geometry), which is also the checkpoint key.
// For the same reason a failed job is not retried: running it again
// would fail again.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"sdbp/internal/obs"
)

// Job is one unit of work. Key must be unique within a Run call and
// stable across process restarts (it keys the checkpoint journal).
type Job[T any] struct {
	Key string
	Run func(ctx context.Context) (T, error)
	// Span, when non-nil, is the job's trace span: its run becomes an
	// "attempt" child annotated with the outcome (ok, error, panic,
	// timeout), or Span itself is marked drained. The runner never ends
	// Span itself — the caller owns the job span's lifetime.
	Span *obs.Span
}

// JobError reports one job's failure.
type JobError struct {
	// Key identifies the failed job.
	Key string
	// Err is the underlying error; for a recovered panic it wraps the
	// panic value.
	Err error
	// Stack is the goroutine stack at the point of a recovered panic,
	// empty for ordinary errors.
	Stack string
	// Duration is how long the job ran.
	Duration time.Duration
	// TimedOut marks a job that exceeded the per-job timeout. The
	// job's goroutine may still be running (simulations are not
	// preemptible); it is abandoned and its result discarded.
	TimedOut bool
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job %s: %v", e.Key, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// Event reports one job settling (completed, failed, or restored from
// the checkpoint).
type Event struct {
	// Key identifies the job.
	Key string
	// Done and Total count settled jobs in this Run call.
	Done, Total int
	// FromCheckpoint marks a result restored from the journal.
	FromCheckpoint bool
	// Err is non-nil when the job failed.
	Err *JobError
	// Elapsed is wall time since Run started.
	Elapsed time.Duration
	// ETA estimates remaining wall time from the live-job completion
	// rate; zero until at least one job has actually executed.
	ETA time.Duration
}

// Options tunes a Run call. The zero value is usable: NumCPU workers,
// no timeout, no checkpoint.
type Options struct {
	// Workers bounds concurrency; 0 means runtime.NumCPU().
	Workers int
	// Timeout bounds each job; 0 means no limit.
	Timeout time.Duration
	// Checkpoint, when non-nil, is consulted before running a job and
	// records every success.
	Checkpoint *Checkpoint
	// Progress, when non-nil, is called after each job settles. It may
	// be called from multiple goroutines; Run serializes the calls.
	Progress func(Event)
	// Obs, when non-nil, receives job accounting (the obs.Ctr*
	// counters and the obs.HistJobSeconds histogram) and the aggregate
	// simulator counters of every live successful result that
	// implements obs.Observable. Checkpoint-restored results are
	// counted but not observed: sim_* counters cover simulated work
	// only.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Set holds a Run call's outcome: one entry per job key, in Values on
// success and Errors on failure.
type Set[T any] struct {
	Values map[string]T
	Errors map[string]*JobError
}

// Value returns a job's result and whether it succeeded.
func (s *Set[T]) Value(key string) (T, bool) {
	v, ok := s.Values[key]
	return v, ok
}

// Err returns a job's failure, nil on success.
func (s *Set[T]) Err(key string) error {
	if e, ok := s.Errors[key]; ok {
		return e
	}
	return nil
}

// Failed returns every failure sorted by job key.
func (s *Set[T]) Failed() []*JobError {
	out := make([]*JobError, 0, len(s.Errors))
	for _, e := range s.Errors {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Run executes the jobs on a bounded pool and returns when every job
// has settled. A cancelled context stops new work; queued jobs drain
// with a cancellation error rather than blocking. Run never panics on
// a panicking job.
func Run[T any](ctx context.Context, jobs []Job[T], opts Options) *Set[T] {
	opts = opts.withDefaults()
	set := &Set[T]{
		Values: make(map[string]T, len(jobs)),
		Errors: make(map[string]*JobError),
	}
	total := len(jobs)
	start := time.Now()
	opts.Obs.Counter(obs.CtrJobsSubmitted).Add(uint64(total))

	var mu sync.Mutex
	done, live := 0, 0
	emit := func(key string, fromCkpt bool, jerr *JobError) {
		done++
		if !fromCkpt {
			live++
		}
		switch {
		case fromCkpt:
			opts.Obs.Counter(obs.CtrJobsFromCheckpoint).Inc()
		case jerr != nil:
			opts.Obs.Counter(obs.CtrJobsFailed).Inc()
			if jerr.TimedOut {
				opts.Obs.Counter(obs.CtrJobTimeouts).Inc()
			}
			if jerr.Stack != "" {
				opts.Obs.Counter(obs.CtrJobPanics).Inc()
			}
		default:
			opts.Obs.Counter(obs.CtrJobsSucceeded).Inc()
		}
		if opts.Progress == nil {
			return
		}
		elapsed := time.Since(start)
		var eta time.Duration
		if live > 0 && done < total {
			eta = time.Duration(float64(elapsed) / float64(live) * float64(total-done))
		}
		opts.Progress(Event{
			Key: key, Done: done, Total: total,
			FromCheckpoint: fromCkpt, Err: jerr,
			Elapsed: elapsed, ETA: eta,
		})
	}

	// Restore checkpointed results first so the pool only sees real work.
	var pending []Job[T]
	for _, j := range jobs {
		var v T
		if opts.Checkpoint.Lookup(j.Key, &v) {
			mu.Lock()
			set.Values[j.Key] = v
			emit(j.Key, true, nil)
			mu.Unlock()
			continue
		}
		pending = append(pending, j)
	}

	ch := make(chan Job[T])
	var wg sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				if err := ctx.Err(); err != nil {
					// Drain: account for the job without running it.
					opts.Obs.Counter(obs.CtrJobsDrained).Inc()
					j.Span.SetAttr("outcome", "drained")
					jerr := &JobError{Key: j.Key, Err: err}
					mu.Lock()
					set.Errors[j.Key] = jerr
					emit(j.Key, false, jerr)
					mu.Unlock()
					continue
				}
				jobStart := time.Now()
				v, jerr := attempt(ctx, j, opts)
				opts.Obs.Histogram(obs.HistJobSeconds).Observe(time.Since(jobStart).Seconds())
				if jerr == nil && opts.Obs != nil {
					// Fold the result's aggregate simulator counters into
					// the registry at the experiment boundary, keeping the
					// per-access path metric-free.
					if o, ok := any(v).(obs.Observable); ok {
						o.ObserveInto(opts.Obs)
					}
				}
				mu.Lock()
				if jerr != nil {
					set.Errors[j.Key] = jerr
				} else {
					set.Values[j.Key] = v
				}
				emit(j.Key, false, jerr)
				mu.Unlock()
				if jerr == nil {
					// Journal outside any caller-visible path; a write
					// failure must not fail the job.
					_ = opts.Checkpoint.Record(j.Key, v)
				}
			}
		}()
	}
	for _, j := range pending {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return set
}

// attempt runs one job, traced as an "attempt" child of the job's span
// (when the job carries one).
func attempt[T any](ctx context.Context, job Job[T], opts Options) (T, *JobError) {
	sp := job.Span.StartChild("attempt")
	defer sp.End()
	v, jerr := runOnce(ctx, job, opts.Timeout)
	switch {
	case jerr == nil:
		sp.SetAttr("outcome", "ok")
		return v, nil
	case jerr.TimedOut:
		sp.SetAttr("outcome", "timeout")
	case jerr.Stack != "":
		sp.SetAttr("outcome", "panic")
	default:
		sp.SetAttr("outcome", "error")
	}
	sp.SetAttr("error", jerr.Err.Error())
	return v, jerr
}

// runOnce executes the job with panic recovery and the per-job
// timeout.
func runOnce[T any](ctx context.Context, job Job[T], timeout time.Duration) (T, *JobError) {
	var zero T
	jctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	type outcome struct {
		v     T
		err   error
		stack string
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{
					err:   fmt.Errorf("panic: %v", r),
					stack: string(debug.Stack()),
				}
			}
		}()
		v, err := job.Run(jctx)
		ch <- outcome{v: v, err: err}
	}()

	select {
	case o := <-ch:
		if o.err != nil {
			return zero, &JobError{
				Key: job.Key, Err: o.err, Stack: o.stack,
				Duration: time.Since(start),
			}
		}
		return o.v, nil
	case <-jctx.Done():
		// The job goroutine is abandoned; simulations are not
		// preemptible, so it runs to completion and its late result is
		// dropped (the outcome channel is buffered).
		return zero, &JobError{
			Key: job.Key, Err: jctx.Err(),
			TimedOut: ctx.Err() == nil,
			Duration: time.Since(start),
		}
	}
}
