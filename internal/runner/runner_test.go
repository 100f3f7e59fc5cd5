package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func intJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job-%02d", i),
			Run: func(context.Context) (int, error) { return i * i, nil },
		}
	}
	return jobs
}

func TestRunAllSucceed(t *testing.T) {
	set := Run(context.Background(), intJobs(20), Options{Workers: 4})
	if len(set.Values) != 20 || len(set.Errors) != 0 {
		t.Fatalf("got %d values, %d errors", len(set.Values), len(set.Errors))
	}
	if v, ok := set.Value("job-07"); !ok || v != 49 {
		t.Errorf("job-07 = %d, %t", v, ok)
	}
}

func TestPanicIsolated(t *testing.T) {
	jobs := intJobs(4)
	jobs[2].Run = func(context.Context) (int, error) { panic("injected fault") }
	set := Run(context.Background(), jobs, Options{Workers: 2})
	if len(set.Values) != 3 {
		t.Fatalf("healthy jobs = %d, want 3", len(set.Values))
	}
	je := set.Errors["job-02"]
	if je == nil {
		t.Fatal("panicking job not reported")
	}
	if !strings.Contains(je.Err.Error(), "injected fault") {
		t.Errorf("error %q does not carry the panic value", je.Err)
	}
	if je.Stack == "" {
		t.Error("panic error missing stack trace")
	}
	if je.Key != "job-02" {
		t.Errorf("key = %q", je.Key)
	}
	if set.Err("job-02") == nil || set.Err("job-01") != nil {
		t.Error("Err accessor wrong")
	}
}

func TestHungJobHitsTimeout(t *testing.T) {
	jobs := intJobs(3)
	jobs[1].Run = func(ctx context.Context) (int, error) {
		<-ctx.Done() // a hung job; only the deadline frees it
		return 0, ctx.Err()
	}
	start := time.Now()
	set := Run(context.Background(), jobs, Options{Workers: 3, Timeout: 50 * time.Millisecond})
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the run")
	}
	je := set.Errors["job-01"]
	if je == nil || !je.TimedOut {
		t.Fatalf("hung job not reported as timeout: %+v", je)
	}
	if len(set.Values) != 2 {
		t.Errorf("healthy jobs = %d, want 2", len(set.Values))
	}
}

func TestCancelledContextDrainsPool(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	jobs := make([]Job[int], 32)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job-%02d", i),
			Run: func(ctx context.Context) (int, error) {
				if started.Add(1) == 1 {
					cancel() // first job to run cancels the campaign
				}
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(10 * time.Millisecond):
					return i, nil
				}
			},
		}
	}
	done := make(chan *Set[int])
	go func() { done <- Run(ctx, jobs, Options{Workers: 2}) }()
	var set *Set[int]
	select {
	case set = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not drain after cancellation")
	}
	if got := len(set.Values) + len(set.Errors); got != len(jobs) {
		t.Fatalf("settled %d of %d jobs", got, len(jobs))
	}
	if len(set.Errors) == 0 {
		t.Error("no job observed the cancellation")
	}
	for _, je := range set.Errors {
		if !errors.Is(je.Err, context.Canceled) {
			t.Errorf("%s failed with %v, want context.Canceled", je.Key, je.Err)
		}
	}
}

func TestProgressEventsCoverEveryJob(t *testing.T) {
	var events []Event
	jobs := intJobs(10)
	jobs[4].Run = func(context.Context) (int, error) { panic("boom") }
	Run(context.Background(), jobs, Options{
		Workers:  3,
		Progress: func(ev Event) { events = append(events, ev) },
	})
	if len(events) != 10 {
		t.Fatalf("events = %d, want 10", len(events))
	}
	last := events[len(events)-1]
	if last.Done != 10 || last.Total != 10 {
		t.Errorf("final event %d/%d", last.Done, last.Total)
	}
	var failed int
	for _, ev := range events {
		if ev.Err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("failure events = %d, want 1", failed)
	}
}

func TestFailedSortedByKey(t *testing.T) {
	jobs := intJobs(6)
	for i := range jobs {
		jobs[i].Run = func(context.Context) (int, error) { return 0, errors.New("no") }
	}
	set := Run(context.Background(), jobs, Options{Workers: 3})
	failed := set.Failed()
	if len(failed) != 6 {
		t.Fatalf("failed = %d", len(failed))
	}
	for i := 1; i < len(failed); i++ {
		if failed[i-1].Key >= failed[i].Key {
			t.Fatalf("failures not sorted: %s >= %s", failed[i-1].Key, failed[i].Key)
		}
	}
}
