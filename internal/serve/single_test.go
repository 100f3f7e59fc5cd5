package serve_test

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"sdbp/internal/obs"
	"sdbp/internal/serve"
)

// TestConcurrentDuplicateSubmissions is the dedup contract: M clients
// submitting the same canonical spec at once cost exactly one
// simulation, every client gets the byte-identical manifest, and the
// accounting closes — each of the M-1 non-leaders is counted as either
// a cache hit or a shared singleflight, never silently absorbed.
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	const m = 24
	release := make(chan struct{})
	var execs atomic.Int64
	cfg := quietCfg()
	cfg.WrapJob = func(addr string, run func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			execs.Add(1)
			<-release
			return serve.Result{Schema: serve.ResultSchema, Spec: "dup", Addr: addr}, nil
		}
	}
	s, ts := newTestServer(t, cfg)
	reg := s.Registry()
	releaseAll := releaseOnCleanup(t, release)

	codes := make([]int, m)
	bodies := make([][]byte, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := submit(t, ts, tinySpec)
			codes[i], bodies[i] = resp.StatusCode, body
		}()
	}
	// Hold the one simulation until every submission has missed the
	// cache (the gate keeps the cache empty, so all M must), forcing
	// maximal overlap through the singleflight layer.
	waitCounter(t, reg, serve.CtrCacheMisses, m)
	releaseAll()
	wg.Wait()

	for i := 0; i < m; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("submission %d: HTTP %d, want 200", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("submission %d returned a different manifest than submission 0", i)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("simulations executed = %d, want exactly 1 for %d identical submissions", n, m)
	}
	hits := reg.CounterValue(serve.CtrCacheHits)
	shared := reg.CounterValue(serve.CtrSingleflightShared)
	if hits+shared != m-1 {
		t.Errorf("cache hits (%d) + singleflight shared (%d) = %d, want %d: every non-leader must be accounted",
			hits, shared, hits+shared, m-1)
	}
	if got := reg.CounterValue(obs.CtrJobsSucceeded); got != 1 {
		t.Errorf("runner jobs succeeded = %d, want 1", got)
	}
}
