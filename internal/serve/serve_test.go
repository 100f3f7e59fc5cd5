package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdbp/internal/obs"
	"sdbp/internal/serve"
)

// quietCfg returns a config with warnings discarded and two run
// slots, the baseline for most tests.
func quietCfg() serve.Config {
	return serve.Config{
		Log:     log.New(io.Discard, "", 0),
		Workers: 2,
	}
}

// cannedJob replaces real simulation with an instant deterministic
// result, for tests that exercise the pipeline rather than the
// simulator. The count, when non-nil, tallies executions.
func cannedJob(count *atomic.Int64) func(string, func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
	return func(addr string, run func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			if count != nil {
				count.Add(1)
			}
			return serve.Result{Schema: serve.ResultSchema, Spec: "canned", Addr: addr}, nil
		}
	}
}

// newTestServer starts a Server and an httptest front end, both torn
// down with the test.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// releaseOnCleanup returns a func that closes release once, and runs it
// from t.Cleanup too, so a check that fails while jobs block on release
// cannot hang the test. Call it after newTestServer: cleanups run last
// registered first, and newTestServer's waits for the blocked handlers.
func releaseOnCleanup(t *testing.T, release chan struct{}) func() {
	var once sync.Once
	f := func() { once.Do(func() { close(release) }) }
	t.Cleanup(f)
	return f
}

func submit(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// tinySpec is a real simulation small enough for tests (~ms).
const tinySpec = `{"policy":"LRU","workloads":["456.hmmer"],"scale":0.01}`

// TestSubmitCachesAndHits drives a real (tiny) simulation end to end:
// the first submission computes and caches, the second is a cache hit
// with byte-identical bytes, and the results endpoint serves the same
// manifest by content address.
func TestSubmitCachesAndHits(t *testing.T) {
	s, ts := newTestServer(t, quietCfg())

	resp1, body1 := submit(t, ts, tinySpec)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: HTTP %d: %s", resp1.StatusCode, body1)
	}
	if src := resp1.Header.Get("X-Sdbpd-Cache"); src != "miss" {
		t.Errorf("first submit cache source = %q, want miss", src)
	}
	var res serve.Result
	if err := json.Unmarshal(body1, &res); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if len(res.Benches) != 1 || res.Benches[0].Name != "456.hmmer" {
		t.Fatalf("manifest benches = %+v", res.Benches)
	}
	if res.Benches[0].LLC.Accesses == 0 || res.Benches[0].Instructions == 0 {
		t.Error("manifest has empty simulation counters")
	}
	if res.Addr != serve.Addr(res.Spec) {
		t.Errorf("addr %s is not the hash of spec %q", res.Addr, res.Spec)
	}
	if got := resp1.Header.Get("X-Sdbpd-Addr"); got != res.Addr {
		t.Errorf("X-Sdbpd-Addr = %s, want %s", got, res.Addr)
	}

	resp2, body2 := submit(t, ts, tinySpec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: HTTP %d", resp2.StatusCode)
	}
	if src := resp2.Header.Get("X-Sdbpd-Cache"); src != "hit" {
		t.Errorf("second submit cache source = %q, want hit", src)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit returned different bytes than the computed result")
	}

	respGet, bodyGet := get(t, ts, "/v1/results/"+res.Addr)
	if respGet.StatusCode != http.StatusOK || !bytes.Equal(bodyGet, body1) {
		t.Errorf("results endpoint: HTTP %d, identical=%t", respGet.StatusCode, bytes.Equal(bodyGet, body1))
	}

	reg := s.Registry()
	if hits := reg.CounterValue(serve.CtrCacheHits); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if misses := reg.CounterValue(serve.CtrCacheMisses); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
	if ran := reg.CounterValue(obs.CtrJobsSucceeded); ran != 1 {
		t.Errorf("jobs executed = %d, want 1", ran)
	}
}

// TestSubmitSpellingsShareOneAddress: a preset name and its explicit
// defaults resolve to the same canonical spec, so the second spelling
// is a cache hit, not a second simulation.
func TestSubmitSpellingsShareOneAddress(t *testing.T) {
	var execs atomic.Int64
	cfg := quietCfg()
	cfg.WrapJob = cannedJob(&execs)
	s, ts := newTestServer(t, cfg)

	resp1, _ := submit(t, ts, `{"policy":"LRU","workloads":["456.hmmer"]}`)
	resp2, _ := submit(t, ts, `{"policy":"lru","workloads":["456.hmmer"],"cores":1,"scale":1}`)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("HTTP %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if a1, a2 := resp1.Header.Get("X-Sdbpd-Addr"), resp2.Header.Get("X-Sdbpd-Addr"); a1 != a2 {
		t.Errorf("spellings of the same experiment got different addresses:\n%s\n%s", a1, a2)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	if hits := s.Registry().CounterValue(serve.CtrCacheHits); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

// TestSubmitRejects pins the decode/resolve failure modes to 400s
// with JSON error envelopes, and the body cap to 413.
func TestSubmitRejects(t *testing.T) {
	cfg := quietCfg()
	cfg.MaxBody = 1 << 12
	cfg.WrapJob = cannedJob(nil)
	s, ts := newTestServer(t, cfg)

	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed json", `{"policy":`, http.StatusBadRequest},
		{"unknown field", `{"policy":"LRU","workloads":["456.hmmer"],"bogus":1}`, http.StatusBadRequest},
		{"unknown policy", `{"policy":"NoSuchPolicy","workloads":["456.hmmer"]}`, http.StatusBadRequest},
		{"unknown workload", `{"policy":"LRU","workloads":["999.nope"]}`, http.StatusBadRequest},
		{"no selection", `{"policy":"LRU"}`, http.StatusBadRequest},
		{"bad scale", `{"policy":"LRU","workloads":["456.hmmer"],"scale":-1}`, http.StatusBadRequest},
		{"oversized body", `{"policy":"` + strings.Repeat("x", 1<<13) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := submit(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error envelope = %s (%v)", body, err)
			}
		})
	}
	if bad := s.Registry().CounterValue(serve.CtrBadRequests); bad != uint64(len(cases)) {
		t.Errorf("bad requests = %d, want %d", bad, len(cases))
	}
}

// TestResultsEndpointValidation: bad addresses are 400, unknown ones
// 404.
func TestResultsEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	if resp, _ := get(t, ts, "/v1/results/nothex"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid addr: HTTP %d, want 400", resp.StatusCode)
	}
	missing := strings.Repeat("ab", 32)
	if resp, _ := get(t, ts, "/v1/results/"+missing); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown addr: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestHealthReadyAndMetrics covers the probe endpoints through a
// drain: healthz stays 200, readyz flips to 503, and the metrics
// snapshot parses and carries the serve_* instruments.
func TestHealthReadyAndMetrics(t *testing.T) {
	cfg := quietCfg()
	cfg.WrapJob = cannedJob(nil)
	s, ts := newTestServer(t, cfg)

	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz before drain: HTTP %d", resp.StatusCode)
	}
	submit(t, ts, tinySpec)

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics snapshot does not parse: %v", err)
	}
	if snap.Counters[serve.CtrSubmits] != 1 {
		t.Errorf("metrics submits = %d, want 1", snap.Counters[serve.CtrSubmits])
	}
	if _, ok := snap.Gauges[serve.GaugeQueueDepth]; !ok {
		t.Error("metrics snapshot missing queue depth gauge")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: HTTP %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: HTTP %d, want 200", resp.StatusCode)
	}
	// Cached results are still served while draining; new work is not.
	if resp, _ := submit(t, ts, tinySpec); resp.StatusCode != http.StatusOK {
		t.Errorf("cached submit during drain: HTTP %d, want 200 (cache hit)", resp.StatusCode)
	}
	resp, _ = submit(t, ts, `{"policy":"Sampler","workloads":["456.hmmer"],"scale":0.01}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new submit during drain: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestAddr pins the content-address helpers.
func TestAddr(t *testing.T) {
	a := serve.Addr("policy=lru();workloads=456.hmmer;cores=1;llc=llc(mb=2,ways=16);scale=1")
	if !serve.ValidAddr(a) {
		t.Fatalf("Addr produced an invalid address %q", a)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64), strings.Repeat("a", 63) + "/"} {
		if serve.ValidAddr(bad) {
			t.Errorf("ValidAddr(%q) = true", bad)
		}
	}
	if serve.Addr("x") == serve.Addr("y") {
		t.Error("distinct specs share an address")
	}
}
