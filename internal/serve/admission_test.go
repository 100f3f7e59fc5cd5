package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdbp/internal/serve"
)

// waitFor scrapes /metrics (which sets the queue-depth gauge) until
// state reports "", failing with state's last report on timeout.
func waitFor(t *testing.T, ts *httptest.Server, state func() string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		get(t, ts, "/metrics")
		got := state()
		if got == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %s", got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkersCapRunningJobs pins the execution stage's contract: at
// most Workers jobs run at once, and every other admitted job waits in
// the admission queue, where the queue-depth gauge counts it.
func TestWorkersCapRunningJobs(t *testing.T) {
	release := make(chan struct{})
	var running, peak atomic.Int64
	cfg := quietCfg()
	cfg.Workers = 2
	cfg.Queue = 8
	cfg.WrapJob = func(addr string, run func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			<-release
			running.Add(-1)
			return serve.Result{Schema: serve.ResultSchema, Spec: "blocked", Addr: addr}, nil
		}
	}
	s, ts := newTestServer(t, cfg)
	reg := s.Registry()
	releaseAll := releaseOnCleanup(t, release)

	const jobs = 5
	codes := make([]int, jobs)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := submit(t, ts, specN(i))
			codes[i] = resp.StatusCode
		}()
	}
	waitFor(t, ts, func() string {
		n, depth := running.Load(), reg.Gauge(serve.GaugeQueueDepth).Value()
		if n == 2 && depth == jobs-2 {
			return ""
		}
		return fmt.Sprintf("%d jobs running, queue depth %g; want 2 and %d", n, depth, jobs-2)
	})
	// Give a third job the chance to start, were the cap not enforced.
	time.Sleep(50 * time.Millisecond)
	if p := peak.Load(); p != 2 {
		t.Errorf("peak running jobs = %d, want Workers = 2", p)
	}

	releaseAll()
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("submission %d: HTTP %d, want 200", i, code)
		}
	}
}
