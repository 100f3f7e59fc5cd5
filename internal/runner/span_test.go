package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sdbp/internal/obs"
)

// attemptSpans filters a trace's records down to the "attempt" children
// of the given job span, in start order.
func attemptSpans(tr *obs.Trace, jobSpanID string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, sp := range tr.Spans() {
		if sp.Name == "attempt" && sp.Parent == jobSpanID {
			out = append(out, sp)
		}
	}
	return out
}

// jobSpanID finds the record for the named job span.
func jobSpanID(t *testing.T, tr *obs.Trace, name string) string {
	t.Helper()
	for _, sp := range tr.Spans() {
		if sp.Name == name {
			return sp.ID
		}
	}
	t.Fatalf("no %q span in trace: %+v", name, tr.Spans())
	return ""
}

// TestJobSpanRecordsAttempts: each traced job, failing or not, runs
// once and yields one attempt child annotated with its outcome.
func TestJobSpanRecordsAttempts(t *testing.T) {
	tr, root := obs.NewTrace("batch")
	okSpan, failSpan := root.StartChild("job:ok"), root.StartChild("job:fails")
	var calls atomic.Int32
	jobs := []Job[int]{
		{Key: "ok", Span: okSpan, Run: func(context.Context) (int, error) { return 7, nil }},
		{Key: "fails", Span: failSpan, Run: func(context.Context) (int, error) {
			calls.Add(1)
			return 0, errors.New("deterministic")
		}},
	}
	set := Run(context.Background(), jobs, Options{Workers: 2})
	if v, ok := set.Value("ok"); !ok || v != 7 {
		t.Fatalf("ok = %d, %t; want 7", v, ok)
	}
	if set.Err("fails") == nil || calls.Load() != 1 {
		t.Fatalf("failing job: error %v after %d runs, want an error after 1", set.Err("fails"), calls.Load())
	}
	okSpan.End()
	failSpan.End()
	root.End()

	for name, want := range map[string]map[string]string{
		"job:ok":    {"outcome": "ok"},
		"job:fails": {"outcome": "error", "error": "deterministic"},
	} {
		atts := attemptSpans(tr, jobSpanID(t, tr, name))
		if len(atts) != 1 {
			t.Fatalf("%s: got %d attempt spans, want 1: %+v", name, len(atts), atts)
		}
		if atts[0].Duration <= 0 {
			t.Errorf("%s: attempt has no duration", name)
		}
		if fmt.Sprint(atts[0].Attrs) != fmt.Sprint(want) {
			t.Errorf("%s: attempt attrs = %v, want %v", name, atts[0].Attrs, want)
		}
	}
}

// TestJobSpanAnnotatesPanicAndTimeout pins the failure annotations.
func TestJobSpanAnnotatesPanicAndTimeout(t *testing.T) {
	tr, root := obs.NewTrace("batch")
	pSpan := root.StartChild("job:panics")
	hSpan := root.StartChild("job:hangs")
	jobs := []Job[int]{
		{Key: "panics", Span: pSpan,
			Run: func(context.Context) (int, error) { panic("boom") }},
		{Key: "hangs", Span: hSpan,
			Run: func(ctx context.Context) (int, error) {
				<-ctx.Done()
				return 0, ctx.Err()
			}},
	}
	set := Run(context.Background(), jobs, Options{
		Workers: 2, Timeout: 50 * time.Millisecond,
	})
	if len(set.Errors) != 2 {
		t.Fatalf("errors = %+v, want both jobs failing", set.Errors)
	}
	pSpan.End()
	hSpan.End()
	root.End()

	p := attemptSpans(tr, jobSpanID(t, tr, "job:panics"))
	if len(p) != 1 || p[0].Attrs["outcome"] != "panic" {
		t.Errorf("panic attempts = %+v", p)
	}
	h := attemptSpans(tr, jobSpanID(t, tr, "job:hangs"))
	if len(h) != 1 || h[0].Attrs["outcome"] != "timeout" {
		t.Errorf("timeout attempts = %+v", h)
	}
}

// TestUntracedJobStillRuns: a nil Span means zero tracing work and no
// panics anywhere on the job path.
func TestUntracedJobStillRuns(t *testing.T) {
	set := Run(context.Background(), intJobs(4), Options{Workers: 2})
	if len(set.Values) != 4 {
		t.Fatalf("values = %d, want 4", len(set.Values))
	}
}
