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

	"sdbp/internal/exp"
	"sdbp/internal/obs"
	"sdbp/internal/serve"
	"sdbp/internal/workloads"
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

// TestSubmitSpellingsShareOneAddress: a preset name, its expression
// with the arguments reordered or default knobs written out, and
// spec-level defaults left implicit or written out all resolve to one
// canonical spec, so each later spelling of a configuration is a cache
// hit, not a second simulation.
func TestSubmitSpellingsShareOneAddress(t *testing.T) {
	groups := [][]string{
		{`{"policy":"LRU","workloads":["456.hmmer"]}`, `{"policy":"lru","workloads":["456.hmmer"],"cores":1,"scale":1}`},
		{
			`{"policy":"Sampler","workloads":["456.hmmer"],"scale":0.05}`,
			`{"policy":"dbrb(pred=sampler,base=lru)","workloads":["456.hmmer"],"scale":0.05}`,
			`{"policy":"dbrb(base=lru,pred=sampler(sets=32,threshold=8))","workloads":["456.hmmer"],"scale":0.05}`,
			`{"policy":"dbrb","workloads":["456.hmmer"],"scale":0.05}`,
		},
	}
	var execs atomic.Int64
	cfg := quietCfg()
	cfg.WrapJob = cannedJob(&execs)
	s, ts := newTestServer(t, cfg)
	var later uint64
	for _, group := range groups {
		var first string
		for i, body := range group {
			resp, data := submit(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %s", body, resp.StatusCode, data)
			}
			addr := resp.Header.Get("X-Sdbpd-Addr")
			if i == 0 {
				first = addr
				continue
			}
			later++
			if addr != first {
				t.Errorf("%s got address %s, want the first spelling's %s", body, addr, first)
			}
			if src := resp.Header.Get("X-Sdbpd-Cache"); src != "hit" {
				t.Errorf("%s: cache source %q, want hit", body, src)
			}
		}
	}
	if n := execs.Load(); n != int64(len(groups)) {
		t.Errorf("executions = %d, want %d, one per configuration", n, len(groups))
	}
	if hits := s.Registry().CounterValue(serve.CtrCacheHits); hits != later {
		t.Errorf("cache hits = %d, want %d", hits, later)
	}
}

// TestMixesOnlySpecNamesItsGeometry: mixes always run quad-core at
// LLCFor(4), so a mixes-only spec's address follows the geometry its
// mixes run at, never its cores field. cores 8 with no llc is the
// 8MB run, another experiment than an explicit llc(mb=16); cores 1 and
// 8 with no llc are one experiment.
func TestMixesOnlySpecNamesItsGeometry(t *testing.T) {
	var execs atomic.Int64
	cfg := quietCfg()
	cfg.WrapJob = cannedJob(&execs)
	_, ts := newTestServer(t, cfg)
	addr := func(body string) string {
		t.Helper()
		resp, data := submit(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", body, resp.StatusCode, data)
		}
		return resp.Header.Get("X-Sdbpd-Addr")
	}
	cores8 := addr(`{"policy":"LRU","mixes":["mix1"],"cores":8}`)
	mb16 := addr(`{"policy":"LRU","mixes":["mix1"],"cores":8,"llc":"llc(mb=16)"}`)
	if cores8 == mb16 || execs.Load() != 2 {
		t.Errorf("cores 8 and llc(mb=16): addresses %s and %s after %d runs, want two addresses and two runs", cores8, mb16, execs.Load())
	}
	if cores1 := addr(`{"policy":"LRU","mixes":["mix1"],"cores":1}`); cores1 != cores8 || execs.Load() != 2 {
		t.Errorf("cores 1 and 8: addresses %s and %s after %d runs, want one address and no new run", cores1, cores8, execs.Load())
	}
}

// TestMixedSpecKeepsDefaultGeometries: a spec with workloads and mixes
// and no llc runs its workloads at the 2MB single-core default and its
// mixes at the 8MB quad-core one, so the same spec with llc(mb=8) is
// another experiment. It must get its own address and its own run, and
// the first spec's echoed canonical form must resolve back to 2MB
// workload runs.
func TestMixedSpecKeepsDefaultGeometries(t *testing.T) {
	const (
		implicit = `{"policy":"LRU","workloads":["456.hmmer"],"mixes":["mix1"],"scale":0.1}`
		explicit = `{"policy":"LRU","workloads":["456.hmmer"],"mixes":["mix1"],"llc":"llc(mb=8,ways=16)","scale":0.1}`
		single   = `{"policy":"LRU","workloads":["456.hmmer"],"scale":0.1}`
	)
	var execs atomic.Int64
	cfg := quietCfg()
	cfg.WrapJob = cannedJob(&execs)
	_, ts := newTestServer(t, cfg)
	resp1, _ := submit(t, ts, implicit)
	resp2, _ := submit(t, ts, explicit)
	if a1, a2 := resp1.Header.Get("X-Sdbpd-Addr"), resp2.Header.Get("X-Sdbpd-Addr"); a1 == a2 {
		t.Errorf("default geometries and llc(mb=8) share address %s", a1)
	}
	if src := resp2.Header.Get("X-Sdbpd-Cache"); src != "miss" || execs.Load() != 2 {
		t.Errorf("llc(mb=8) twin: source %q after %d runs, want its own run (miss, 2 runs)", src, execs.Load())
	}

	resolve := func(body string) *exp.Resolved {
		t.Helper()
		var spec exp.Spec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		r, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	canonical := resolve(implicit).String()
	echoed, err := exp.ParseSpec(canonical)
	if err != nil {
		t.Fatal(err)
	}
	r, err := echoed.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != canonical {
		t.Errorf("canonical %q re-resolves to %q", canonical, r.String())
	}
	if wl, mix := r.LLCFor(r.Cores).SizeBytes, r.LLCFor(4).SizeBytes; wl != 2<<20 || mix != 8<<20 {
		t.Fatalf("echoed %q runs workloads at %d and mixes at %d bytes, want 2MB and 8MB", canonical, wl, mix)
	}
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	got, want, twin := r.RunBench(w), resolve(single).RunBench(w), resolve(explicit).RunBench(w)
	if got.LLC != want.LLC {
		t.Errorf("echoed spec's 456.hmmer LLC stats %+v, want the 2MB default run's %+v", got.LLC, want.LLC)
	}
	if twin.LLC == want.LLC {
		t.Errorf("456.hmmer at scale 0.1 runs alike at 2MB and 8MB; the check above cannot tell them apart")
	}
}

// TestSubmitRejects pins the decode/resolve failure modes to 400s
// with JSON error envelopes, and the 1 MiB body cap to 413.
func TestSubmitRejects(t *testing.T) {
	// bodyOf pads a spec naming an unknown policy to n bytes.
	bodyOf := func(n int) string {
		const head, tail = `{"policy":"`, `"}`
		return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
	}
	cfg := quietCfg()
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
		{"body at the cap", bodyOf(1 << 20), http.StatusBadRequest},
		{"oversized body", bodyOf(1<<20 + 1), http.StatusRequestEntityTooLarge},
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
