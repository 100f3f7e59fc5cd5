package serve_test

// Fault-injection suite: every degradation path the service promises
// is provoked deliberately and its blast radius asserted — queue
// overload (429, no goroutine growth), a panicking job (fails alone),
// storage-write failures (cache degrades, requests still served),
// shutdown mid-job (in-flight drains, queued work 503s), and a crash
// followed by a checkpoint resume (byte-identical manifest, no
// re-simulation).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdbp/internal/exp"
	"sdbp/internal/obs"
	"sdbp/internal/runner"
	"sdbp/internal/serve"
)

// specN builds the N-th distinct valid submission body (distinct
// canonical specs, so no sharing by address).
func specN(n int) string {
	return fmt.Sprintf(`{"policy":"LRU","workloads":["456.hmmer"],"scale":%g}`, 0.01+float64(n)*0.001)
}

// waitCounter polls a registry counter until it reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.CounterValue(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s = %d, want >= %d (timeout)", name, reg.CounterValue(name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueFullBackpressure fills the pipeline — one running job, a
// full admission queue — then hammers the handler directly with
// distinct submissions. Every one must bounce as 429 + Retry-After
// without spawning pipeline goroutines: backpressure is a rejected
// request, not a parked one.
func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	cfg := quietCfg()
	cfg.Queue = 2
	cfg.Workers = 1
	cfg.WrapJob = func(addr string, run func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			execs.Add(1)
			<-release
			return serve.Result{Schema: serve.ResultSchema, Spec: "blocked", Addr: addr}, nil
		}
	}
	s, ts := newTestServer(t, cfg)
	reg := s.Registry()

	// Occupy the only run slot, then fill the queue behind it: it takes
	// Workers + Queue submissions to saturate the intake.
	var wg sync.WaitGroup
	results := make([]int, 3)
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := submit(t, ts, specN(i))
			results[i] = resp.StatusCode
		}()
	}
	// Wait until the slot is taken and the queue is physically full.
	// The depth gauge is set at each /metrics scrape, so scrape-then-
	// read until it reports the configured capacity; probing with a
	// real submission instead would risk being admitted — and blocking
	// — in the window before the three submissions arrive.
	waitFor(t, ts, func() string {
		running, depth := execs.Load(), reg.Gauge(serve.GaugeQueueDepth).Value()
		if running == 1 && depth == float64(cfg.Queue) {
			return ""
		}
		return fmt.Sprintf("%d running, queue depth %g; want 1 and %d", running, depth, cfg.Queue)
	})

	// Hammer the saturated server through the handler directly (no
	// network, no server-side conn goroutines) and watch goroutines.
	handler := s.Handler()
	before := runtime.NumGoroutine()
	const rejects = 50
	for i := 0; i < rejects; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(specN(200+i)))
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("submission %d under overload: HTTP %d, want 429", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	}
	after := runtime.NumGoroutine()
	if growth := after - before; growth > 3 {
		t.Errorf("goroutines grew by %d across %d rejected submissions, want ~0", growth, rejects)
	}
	if got := reg.CounterValue(serve.CtrQueueRejects); got < rejects {
		t.Errorf("queue rejects = %d, want >= %d", got, rejects)
	}

	close(release)
	wg.Wait()
	for i, code := range results {
		if code != http.StatusOK {
			t.Errorf("admitted submission %d: HTTP %d, want 200", i, code)
		}
	}
	if n := execs.Load(); n != 3 {
		t.Errorf("executions = %d, want 3 (the admitted jobs, none of the rejected)", n)
	}
}

// TestPanicFailsOnlyThatJob runs a panicking job and a healthy one
// side by side; the panic must come back as that job's 500 while the
// healthy job completes normally.
func TestPanicFailsOnlyThatJob(t *testing.T) {
	poisonAddr := make(map[string]bool)
	var mu sync.Mutex
	cfg := quietCfg()
	cfg.WrapJob = func(addr string, run func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			mu.Lock()
			poisoned := poisonAddr[addr]
			mu.Unlock()
			if poisoned {
				panic("injected fault: simulated predictor bug")
			}
			return serve.Result{Schema: serve.ResultSchema, Spec: "ok", Addr: addr}, nil
		}
	}
	s, ts := newTestServer(t, cfg)

	poison, healthy := specN(1), specN(2)
	mu.Lock()
	poisonAddr[addrOf(t, poison)] = true
	mu.Unlock()

	var wg sync.WaitGroup
	var poisonCode, healthyCode int
	var poisonBody []byte
	wg.Add(2)
	go func() {
		defer wg.Done()
		resp, body := submit(t, ts, poison)
		poisonCode, poisonBody = resp.StatusCode, body
	}()
	go func() {
		defer wg.Done()
		resp, _ := submit(t, ts, healthy)
		healthyCode = resp.StatusCode
	}()
	wg.Wait()

	if poisonCode != http.StatusInternalServerError {
		t.Errorf("poisoned job: HTTP %d, want 500", poisonCode)
	}
	if !bytes.Contains(poisonBody, []byte("panic")) {
		t.Errorf("poisoned job error does not mention the panic: %s", poisonBody)
	}
	if healthyCode != http.StatusOK {
		t.Errorf("healthy job beside the panic: HTTP %d, want 200", healthyCode)
	}
	reg := s.Registry()
	if got := reg.CounterValue(obs.CtrJobPanics); got != 1 {
		t.Errorf("recovered panics = %d, want 1", got)
	}
	if got := reg.CounterValue(obs.CtrJobsSucceeded); got != 1 {
		t.Errorf("succeeded jobs = %d, want 1", got)
	}
	// The server itself survived.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Error("server unhealthy after a job panic")
	}
}

// addrOf resolves a submission body to its content address offline,
// exactly as the server will: strict decode, resolve to the canonical
// spec, hash.
func addrOf(t *testing.T, body string) string {
	t.Helper()
	var spec exp.Spec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	resolved, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return serve.Addr(resolved.String())
}

// failingStore wraps a Store with injected write and/or read faults.
type failingStore struct {
	inner    serve.Store
	failPut  atomic.Bool
	failGet  atomic.Bool
	putFails atomic.Int64
}

func (f *failingStore) Get(addr string) ([]byte, bool, error) {
	if f.failGet.Load() {
		return nil, false, errors.New("injected fault: store read error")
	}
	return f.inner.Get(addr)
}

func (f *failingStore) Put(addr string, data []byte) error {
	if f.failPut.Load() {
		f.putFails.Add(1)
		return errors.New("injected fault: store write error")
	}
	return f.inner.Put(addr, data)
}

func (f *failingStore) Close() error { return f.inner.Close() }

// TestStorageFailureDegradesGracefully: a broken cache backend must
// cost recomputation, never correctness or availability.
func TestStorageFailureDegradesGracefully(t *testing.T) {
	fs := &failingStore{inner: serve.NewMemStore()}
	fs.failPut.Store(true)
	var execs atomic.Int64
	cfg := quietCfg()
	cfg.Store = fs
	cfg.WrapJob = cannedJob(&execs)
	s, ts := newTestServer(t, cfg)

	// Writes failing: every submission still gets its manifest, each
	// recomputes (nothing sticks in the cache).
	resp1, body1 := submit(t, ts, specN(1))
	resp2, body2 := submit(t, ts, specN(1))
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("HTTP %d, %d under store write faults, want 200s", resp1.StatusCode, resp2.StatusCode)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("recomputed manifest differs")
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("executions = %d, want 2 (cache degraded to recompute)", n)
	}
	if fs.putFails.Load() == 0 {
		t.Error("injected Put fault never hit")
	}
	if got := s.Registry().CounterValue(serve.CtrStoreErrors); got < 2 {
		t.Errorf("store errors counted = %d, want >= 2", got)
	}

	// Reads failing too: still served, still correct.
	fs.failGet.Store(true)
	resp3, body3 := submit(t, ts, specN(1))
	if resp3.StatusCode != 200 || !bytes.Equal(body3, body1) {
		t.Errorf("HTTP %d under read+write faults (identical=%t), want 200 and identical", resp3.StatusCode, bytes.Equal(body3, body1))
	}

	// Heal the store: caching resumes.
	fs.failPut.Store(false)
	fs.failGet.Store(false)
	submit(t, ts, specN(1))
	resp5, _ := submit(t, ts, specN(1))
	if src := resp5.Header.Get("X-Sdbpd-Cache"); src != "hit" {
		t.Errorf("after heal, cache source = %q, want hit", src)
	}
}

// TestShutdownDrainsInFlight: during shutdown the executing job
// finishes and answers 200, the queued job answers 503, and new work
// is refused — then the server is fully stopped.
func TestShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := quietCfg()
	cfg.Workers = 1
	cfg.Queue = 4
	cfg.WrapJob = func(addr string, run func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return serve.Result{Schema: serve.ResultSchema, Spec: "slow", Addr: addr}, nil
		}
	}
	s, ts := newTestServer(t, cfg)

	var inflightCode, queuedCode int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := submit(t, ts, specN(1))
		inflightCode = resp.StatusCode
	}()
	<-started // job 1 executing
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := submit(t, ts, specN(2))
		queuedCode = resp.StatusCode
	}()
	waitCounter(t, s.Registry(), serve.CtrCacheMisses, 2) // job 2 at least admitted

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// New work is refused while the drain waits on the in-flight job.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := submit(t, ts, specN(3))
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server still accepts work")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	wg.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if inflightCode != http.StatusOK {
		t.Errorf("in-flight job during drain: HTTP %d, want 200", inflightCode)
	}
	if queuedCode != http.StatusServiceUnavailable {
		t.Errorf("queued job during drain: HTTP %d, want 503", queuedCode)
	}
}

// TestCrashRestartResumesByteIdentical is the crash-safety contract:
// a server that checkpoints its completed jobs and then dies without
// any graceful shutdown is replaced by a fresh server resuming the
// same journal; resubmitting the same experiment yields the
// byte-identical manifest without re-simulating.
func TestCrashRestartResumesByteIdentical(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "sdbpd.ckpt")

	ck1, err := runner.OpenCheckpoint(ckptPath, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := quietCfg()
	cfg1.Checkpoint = ck1
	s1 := serve.New(cfg1)
	ts1 := httptest.NewServer(s1.Handler())
	resp1, body1 := submit(t, ts1, tinySpec)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first server submit: HTTP %d", resp1.StatusCode)
	}
	// Crash: no Shutdown, no drain — just the journal hitting disk and
	// the process "dying" (server abandoned, file closed as the OS
	// would).
	ts1.Close()
	ck1.Close()

	ck2, err := runner.OpenCheckpoint(ckptPath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 1 {
		t.Fatalf("journal holds %d entries after crash, want 1", ck2.Len())
	}
	cfg2 := quietCfg()
	cfg2.Checkpoint = ck2
	// Fresh memory store: the cache died with the process; only the
	// checkpoint survives.
	s2, ts2 := newTestServer(t, cfg2)

	resp2, body2 := submit(t, ts2, tinySpec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resumed submit: HTTP %d", resp2.StatusCode)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("resumed manifest differs from the pre-crash manifest:\n%s\nvs\n%s", body1, body2)
	}
	reg := s2.Registry()
	if got := reg.CounterValue(obs.CtrJobsFromCheckpoint); got != 1 {
		t.Errorf("jobs from checkpoint = %d, want 1", got)
	}
	if got := reg.CounterValue(obs.CtrJobsSucceeded); got != 0 {
		t.Errorf("re-simulated jobs = %d, want 0", got)
	}
}

// TestCrashRestartWithTornJournalTail: the crash happened mid-Record —
// the journal ends in a torn line. The resume must still load the
// intact prefix (warning, not error) and serve it.
func TestCrashRestartWithTornJournalTail(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "sdbpd.ckpt")
	ck1, _ := runner.OpenCheckpoint(ckptPath, false)
	cfg1 := quietCfg()
	cfg1.Checkpoint = ck1
	s1 := serve.New(cfg1)
	ts1 := httptest.NewServer(s1.Handler())
	_, body1 := submit(t, ts1, tinySpec)
	ts1.Close()
	ck1.Close()

	// Tear the tail as a crash mid-write would.
	f, err := os.OpenFile(ckptPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, `{"key":"policy=sampler(`)
	f.Close()

	old := runner.Warnf
	runner.Warnf = func(string, ...any) {}
	defer func() { runner.Warnf = old }()
	ck2, err := runner.OpenCheckpoint(ckptPath, true)
	if err != nil {
		t.Fatalf("resume with torn tail failed: %v", err)
	}
	defer ck2.Close()
	cfg2 := quietCfg()
	cfg2.Checkpoint = ck2
	_, ts2 := newTestServer(t, cfg2)
	resp2, body2 := submit(t, ts2, tinySpec)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body1, body2) {
		t.Errorf("torn-tail resume: HTTP %d, identical=%t", resp2.StatusCode, bytes.Equal(body1, body2))
	}
}
