package serve_test

// Fault-injection suite: every degradation path the service promises
// is provoked deliberately and its blast radius asserted — queue
// overload (429, no goroutine growth), a panicking job (fails alone),
// storage-write failures (cache degrades, requests still served),
// shutdown mid-job (in-flight drains, queued work 503s), and a crash
// followed by a restart on the same disk store (byte-identical cache
// hits, no re-simulation, torn writes ignored).

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
	releaseAll := releaseOnCleanup(t, release)

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

	releaseAll()
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
	releaseAll := releaseOnCleanup(t, release)

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

	releaseAll()
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

// crashAfterSubmit answers tinySpec on a server storing results in
// dir, then drops the server without Shutdown or a drain, as a crash
// would, and returns the manifest it answered.
func crashAfterSubmit(t *testing.T, dir string) []byte {
	t.Helper()
	store, err := serve.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietCfg()
	cfg.Store = store
	ts := httptest.NewServer(serve.New(cfg).Handler())
	defer ts.Close()
	resp, body := submit(t, ts, tinySpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first server submit: HTTP %d: %s", resp.StatusCode, body)
	}
	return body
}

// restartAnswersFromStore restarts a one-slot server on dir and checks
// that tinySpec comes back as want, a cache hit that submits no runner
// job: first on the idle server, then while a blocked job for blocker
// holds the only run slot. It returns once the blocked job answered,
// with that answer.
func restartAnswersFromStore(t *testing.T, dir string, want []byte, blocker string) []byte {
	t.Helper()
	store, err := serve.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := quietCfg()
	cfg.Store = store
	cfg.Workers = 1
	cfg.WrapJob = func(addr string, run func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			started <- struct{}{}
			<-release
			return serve.Result{Schema: serve.ResultSchema, Spec: "blocked", Addr: addr}, nil
		}
	}
	s, ts := newTestServer(t, cfg)
	releaseAll := releaseOnCleanup(t, release)
	reg := s.Registry()

	// The client timeout bounds each hit, so a hit that waits for the
	// held slot fails the test instead of hanging it.
	client := &http.Client{Timeout: 10 * time.Second}
	hit := func(when string) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tinySpec))
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", when, resp.StatusCode, body)
		}
		if src := resp.Header.Get("X-Sdbpd-Cache"); src != "hit" {
			t.Errorf("%s: cache source = %q, want hit", when, src)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: manifest differs from the pre-crash manifest:\n%s\nvs\n%s", when, body, want)
		}
	}
	hit("after the restart")
	if got := reg.CounterValue(obs.CtrJobsSubmitted); got != 0 {
		t.Errorf("runner jobs submitted = %d, want 0: a stored result needs no job", got)
	}

	blocked := make(chan []byte, 1)
	go func() {
		var body []byte
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(blocker))
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("blocked job: %v, answer %s", err, body)
		}
		blocked <- body
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the blocking job never started")
	}
	hit("while a blocked job holds the only run slot")
	if got := reg.CounterValue(obs.CtrJobsSubmitted); got != 1 {
		t.Errorf("runner jobs submitted = %d, want 1: the blocked job only", got)
	}
	releaseAll()
	return <-blocked
}

// TestCrashRestartResumesByteIdentical is the crash-safety contract: a
// server storing its results on disk dies without any graceful
// shutdown, and a fresh server on the same directory answers the same
// experiment with the byte-identical manifest as a cache hit, without
// re-simulating or waiting for a run slot.
func TestCrashRestartResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	body := crashAfterSubmit(t, dir)
	restartAnswersFromStore(t, dir, body, specN(1))
}

// TestCrashRestartIgnoresTornPut: the crash happened in the middle of
// two Puts, one rewriting the stored result and one storing a new
// result, and left each a torn temp file. The restarted server still
// answers the stored result byte-identically, the address with only a
// torn temp file is a miss that runs its job, never the torn bytes,
// and reopening the directory deleted both temp files.
func TestCrashRestartIgnoresTornPut(t *testing.T) {
	dir := t.TempDir()
	body := crashAfterSubmit(t, dir)
	for _, spec := range []string{tinySpec, specN(1)} {
		torn := filepath.Join(dir, addrOf(t, spec)+".tmp123456")
		if err := os.WriteFile(torn, body[:len(body)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := restartAnswersFromStore(t, dir, body, specN(1))
	var res serve.Result
	if err := json.Unmarshal(got, &res); err != nil || res.Spec != "blocked" {
		t.Errorf("address with a torn temp file answered %q (%v), want the job's own manifest", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if addr, ok := strings.CutSuffix(e.Name(), ".json"); !ok || !serve.ValidAddr(addr) {
			t.Errorf("store directory holds %s after the restart, want only ADDR.json files", e.Name())
		}
	}
	if len(entries) != 2 {
		t.Errorf("store directory holds %d files, want the 2 stored results", len(entries))
	}
}
