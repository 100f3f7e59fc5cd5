package runner

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sdbp/internal/obs"
)

// observed implements obs.Observable so the runner's result hook can
// be reconciled.
type observed struct {
	N uint64
}

func (o observed) ObserveInto(r *obs.Registry) {
	r.Counter("sim_total").Add(o.N)
	r.Counter("sim_results").Inc()
}

// TestRunnerObsReconciliation is the runner half of the reconciliation
// suite: job counts in the registry must equal jobs submitted, split
// exactly into succeeded/failed, the per-job histogram must hold one
// observation per executed job, and every successful result's counters
// must be folded in.
func TestRunnerObsReconciliation(t *testing.T) {
	reg := obs.NewRegistry()
	const total, failing = 40, 7
	var jobs []Job[observed]
	for i := 0; i < total; i++ {
		i := i
		jobs = append(jobs, Job[observed]{
			Key: fmt.Sprintf("job%02d", i),
			Run: func(context.Context) (observed, error) {
				if i < failing {
					return observed{}, errors.New("boom")
				}
				return observed{N: uint64(i)}, nil
			},
		})
	}
	set := Run(context.Background(), jobs, Options{Workers: 4, Obs: reg})

	if got := reg.CounterValue(obs.CtrJobsSubmitted); got != total {
		t.Errorf("submitted = %d, want %d", got, total)
	}
	if got := reg.CounterValue(obs.CtrJobsSucceeded); got != uint64(len(set.Values)) {
		t.Errorf("succeeded = %d, want %d (len of Values)", got, len(set.Values))
	}
	if got := reg.CounterValue(obs.CtrJobsFailed); got != uint64(len(set.Errors)) {
		t.Errorf("failed = %d, want %d (len of Errors)", got, len(set.Errors))
	}
	sum := reg.CounterValue(obs.CtrJobsSucceeded) + reg.CounterValue(obs.CtrJobsFailed) +
		reg.CounterValue(obs.CtrJobsFromCheckpoint)
	if sum != total {
		t.Errorf("succeeded+failed+checkpointed = %d, want %d", sum, total)
	}
	// Every job executed live, so the histogram holds exactly one
	// duration per job.
	if got := reg.Histogram(obs.HistJobSeconds).Count(); got != total {
		t.Errorf("job-seconds observations = %d, want %d", got, total)
	}
	// Result folding: sum of N over the successful jobs.
	var want uint64
	for i := failing; i < total; i++ {
		want += uint64(i)
	}
	if got := reg.CounterValue("sim_total"); got != want {
		t.Errorf("sim_total = %d, want %d", got, want)
	}
	if got := reg.CounterValue("sim_results"); got != total-failing {
		t.Errorf("sim_results = %d, want %d", got, total-failing)
	}
}

// TestRunnerObsCheckpointRestore pins that restored results are
// counted as from-checkpoint and NOT re-observed: sim counters cover
// simulated work only.
func TestRunnerObsCheckpointRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job[observed]{
		{Key: "a", Run: func(context.Context) (observed, error) { return observed{N: 5}, nil }},
		{Key: "b", Run: func(context.Context) (observed, error) { return observed{N: 6}, nil }},
	}
	Run(context.Background(), jobs, Options{Workers: 1, Checkpoint: ck})
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	reg := obs.NewRegistry()
	set := Run(context.Background(), jobs, Options{Workers: 1, Checkpoint: ck2, Obs: reg})
	if len(set.Values) != 2 {
		t.Fatalf("resume lost results: %+v", set.Errors)
	}
	if got := reg.CounterValue(obs.CtrJobsFromCheckpoint); got != 2 {
		t.Errorf("from_checkpoint = %d, want 2", got)
	}
	if got := reg.CounterValue(obs.CtrJobsSucceeded); got != 0 {
		t.Errorf("succeeded = %d, want 0 (all restored)", got)
	}
	if got := reg.CounterValue("sim_total"); got != 0 {
		t.Errorf("restored results were re-observed: sim_total = %d, want 0", got)
	}
	if got := reg.Histogram(obs.HistJobSeconds).Count(); got != 0 {
		t.Errorf("restored results observed durations: %d, want 0", got)
	}
}

// TestRunnerObsFailureModes reconciles the timeout and panic counters
// against engineered failures; no failure is retried.
func TestRunnerObsFailureModes(t *testing.T) {
	reg := obs.NewRegistry()
	var attempts atomic.Uint64
	jobs := []Job[int]{
		{Key: "fails", Run: func(context.Context) (int, error) {
			attempts.Add(1)
			return 0, errors.New("deterministic")
		}},
		{Key: "ok", Run: func(context.Context) (int, error) { return 1, nil }},
		{Key: "panics", Run: func(context.Context) (int, error) { panic("kaboom") }},
		{Key: "hangs", Run: func(context.Context) (int, error) {
			time.Sleep(10 * time.Second)
			return 0, nil
		}},
	}
	Run(context.Background(), jobs, Options{
		Workers: 4, Timeout: 100 * time.Millisecond, Obs: reg,
	})
	if got := attempts.Load(); got != 1 {
		t.Errorf("the failing job ran %d times, want 1", got)
	}
	if got := reg.CounterValue(obs.CtrJobTimeouts); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	if got := reg.CounterValue(obs.CtrJobPanics); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	if got := reg.CounterValue(obs.CtrJobsSucceeded); got != 1 {
		t.Errorf("succeeded = %d, want 1", got)
	}
	if got := reg.CounterValue(obs.CtrJobsFailed); got != 3 {
		t.Errorf("failed = %d, want 3", got)
	}
}

// TestRunnerObsDrainedJobs cancels mid-run and checks drained jobs are
// counted but contribute no duration observations.
func TestRunnerObsDrainedJobs(t *testing.T) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 20
	var jobs []Job[int]
	for i := 0; i < total; i++ {
		jobs = append(jobs, Job[int]{
			Key: fmt.Sprintf("j%02d", i),
			Run: func(context.Context) (int, error) {
				cancel() // first executed job cancels the campaign
				return 1, nil
			},
		})
	}
	Run(ctx, jobs, Options{Workers: 1, Obs: reg})
	executed := reg.CounterValue(obs.CtrJobsSucceeded) +
		reg.CounterValue(obs.CtrJobsFailed) - reg.CounterValue(obs.CtrJobsDrained)
	if got := reg.Histogram(obs.HistJobSeconds).Count(); got != executed {
		t.Errorf("duration observations = %d, want %d (executed jobs only)", got, executed)
	}
	if reg.CounterValue(obs.CtrJobsDrained) == 0 {
		t.Error("no jobs drained despite cancellation")
	}
	total2 := reg.CounterValue(obs.CtrJobsSucceeded) + reg.CounterValue(obs.CtrJobsFailed)
	if total2 != total {
		t.Errorf("succeeded+failed = %d, want %d", total2, total)
	}
}

// TestRunnerObsConcurrentJobs is the runner+obs race smoke for CI: many
// workers incrementing shared metrics from inside jobs while the runner
// does its own accounting on the same registry.
func TestRunnerObsConcurrentJobs(t *testing.T) {
	reg := obs.NewRegistry()
	const total = 200
	var jobs []Job[observed]
	for i := 0; i < total; i++ {
		jobs = append(jobs, Job[observed]{
			Key: fmt.Sprintf("j%03d", i),
			Run: func(context.Context) (observed, error) {
				reg.Counter("in_job").Inc()
				reg.Histogram("in_job_hist").Observe(1)
				return observed{N: 1}, nil
			},
		})
	}
	set := Run(context.Background(), jobs, Options{Workers: 8, Obs: reg})
	if len(set.Values) != total {
		t.Fatalf("failures: %v", set.Failed())
	}
	for name, want := range map[string]uint64{
		"in_job": total, "sim_total": total, "sim_results": total,
		obs.CtrJobsSucceeded: total, obs.CtrJobsSubmitted: total,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Histogram("in_job_hist").Count(); got != total {
		t.Errorf("in-job histogram = %d, want %d", got, total)
	}
}
