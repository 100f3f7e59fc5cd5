package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdbp/internal/exp"
	"sdbp/internal/serve"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    string
	event string
	data  serve.JobEvent
}

// parseSSE reads a response's event stream until the server closes it
// (the job finished).
func parseSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content type = %q", ct)
	}
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			out = append(out, cur)
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.data); err != nil {
				t.Fatalf("event data does not parse: %v (%q)", err, line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return out
}

// readSSE fetches and parses a job's full event stream.
func readSSE(t *testing.T, ts *httptest.Server, addr string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	return parseSSE(t, resp)
}

func eventTypes(evs []sseEvent) []string {
	types := make([]string, len(evs))
	for i, ev := range evs {
		types[i] = ev.event
	}
	return types
}

// tinySpecAddr computes tinySpec's content address the way the server
// does, so tests can reach job endpoints before the submission
// responds.
func tinySpecAddr(t *testing.T) string {
	t.Helper()
	var spec exp.Spec
	if err := json.Unmarshal([]byte(tinySpec), &spec); err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return serve.Addr(r.String())
}

// TestJobEventLifecycle: a finished job replays its complete lifecycle
// in deterministic order, interval progress included.
func TestJobEventLifecycle(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	resp, body := submit(t, ts, tinySpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	addr := resp.Header.Get("X-Sdbpd-Addr")

	evs := readSSE(t, ts, addr)
	want := []string{"submitted", "queued", "running", "progress", "stored", "done"}
	got := eventTypes(evs)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lifecycle = %v, want %v", got, want)
	}
	for i, ev := range evs {
		if ev.data.Seq != i || ev.id != fmt.Sprint(i) {
			t.Errorf("event %d seq/id = %d/%s", i, ev.data.Seq, ev.id)
		}
		if ev.data.Addr != addr {
			t.Errorf("event %d addr = %q", i, ev.data.Addr)
		}
		if ev.data.Type != ev.event {
			t.Errorf("event %d type %q != SSE event name %q", i, ev.data.Type, ev.event)
		}
	}
	prog := evs[3].data
	if prog.Done != 1 || prog.Total != 1 || prog.Detail != "456.hmmer" {
		t.Errorf("progress event = %+v, want 1/1 456.hmmer", prog)
	}
}

// TestEventsCacheHit: a resubmission of a finished job opens a fresh
// generation with the short cached lifecycle.
func TestEventsCacheHit(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	resp, _ := submit(t, ts, tinySpec)
	addr := resp.Header.Get("X-Sdbpd-Addr")
	submit(t, ts, tinySpec) // hit: replaces the finished feed

	got := eventTypes(readSSE(t, ts, addr))
	want := []string{"submitted", "cached", "done"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cached lifecycle = %v, want %v", got, want)
	}
}

// TestEventsLiveTail: a watcher that attaches mid-job receives the
// recorded history immediately and the rest as it happens.
func TestEventsLiveTail(t *testing.T) {
	release := make(chan struct{})
	cfg := quietCfg()
	cfg.WrapJob = func(addr string, run func(ctx context.Context) (serve.Result, error)) func(ctx context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			<-release
			return serve.Result{Schema: serve.ResultSchema, Spec: "canned", Addr: addr}, nil
		}
	}
	_, ts := newTestServer(t, cfg)
	releaseAll := releaseOnCleanup(t, release)

	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tinySpec))
		if err == nil {
			resp.Body.Close()
		}
	}()

	// The job is blocked inside WrapJob; attach to its live feed.
	addr := tinySpecAddr(t)
	var resp *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for resp == nil {
		r, err := http.Get(ts.URL + "/v1/jobs/" + addr + "/events")
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			resp = r
			break
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("job feed never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		releaseAll()
	}()

	got := eventTypes(parseSSE(t, resp))
	// WrapJob replaces the real execution, so there are no progress
	// events — but the stream must still end with stored + done.
	want := []string{"submitted", "queued", "running", "stored", "done"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live lifecycle = %v, want %v", got, want)
	}
	<-submitted
}

// TestEventsErrors: malformed and unknown addresses.
func TestEventsErrors(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	if resp, _ := get(t, ts, "/v1/jobs/nothex/events"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed addr: HTTP %d, want 400", resp.StatusCode)
	}
	unknown := serve.Addr("never submitted")
	if resp, _ := get(t, ts, "/v1/jobs/"+unknown+"/events"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown addr: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestEvictionClosesLiveFeed: the server keeps the trace and event
// feed of the 256 most recently submitted addresses. A 257th evicts
// the oldest even while its job runs: a watcher on it sees the feed
// close with no terminal event, and its trace and feed then 404, while
// the next oldest address keeps both.
func TestEvictionClosesLiveFeed(t *testing.T) {
	oldest := addrOf(t, specN(0))
	release := make(chan struct{})
	cfg := quietCfg()
	cfg.WrapJob = func(addr string, run func(ctx context.Context) (serve.Result, error)) func(ctx context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			if addr == oldest {
				<-release
			}
			return serve.Result{Schema: serve.ResultSchema, Spec: "canned", Addr: addr}, nil
		}
	}
	_, ts := newTestServer(t, cfg)
	releaseAll := releaseOnCleanup(t, release)

	answered := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(specN(0)))
		if err != nil {
			t.Error(err)
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	// The client timeout bounds the watch, so a feed that never closes
	// fails the test instead of hanging it.
	client := &http.Client{Timeout: 10 * time.Second}
	var watch *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for watch == nil {
		r, err := client.Get(ts.URL + "/v1/jobs/" + oldest + "/events")
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			watch = r
			break
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("job feed never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for n := 1; n <= 256; n++ {
		if resp, body := submit(t, ts, specN(n)); resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d: HTTP %d: %s", n, resp.StatusCode, body)
		}
	}
	got := eventTypes(parseSSE(t, watch))
	if want := []string{"submitted", "queued", "running"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("evicted feed = %v, want %v and then closed", got, want)
	}
	for _, path := range []string{"/v1/traces/" + oldest, "/v1/jobs/" + oldest + "/events"} {
		if resp, _ := get(t, ts, path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	next := addrOf(t, specN(1))
	for _, path := range []string{"/v1/traces/" + next, "/v1/jobs/" + next + "/events"} {
		if resp, _ := get(t, ts, path); resp.StatusCode != http.StatusOK {
			t.Errorf("retained %s: HTTP %d, want 200", path, resp.StatusCode)
		}
	}

	releaseAll()
	if code := <-answered; code != http.StatusOK {
		t.Errorf("evicted job's own submission: HTTP %d, want 200", code)
	}
}
