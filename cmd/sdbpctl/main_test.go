package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdbp/internal/serve"
)

// newBackend starts a real serve.Server for the client to talk to.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{Log: log.New(io.Discard, "", 0), Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts
}

func TestCtlSubmitAddrGetMetrics(t *testing.T) {
	ts := newBackend(t)

	var out, errBuf bytes.Buffer
	code := run([]string{"submit", "-server", ts.URL, "-policy", "LRU", "-bench", "456.hmmer", "-scale", "0.01"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("submit exit %d; stderr: %s", code, errBuf.String())
	}
	var manifest struct {
		Schema int    `json:"schema"`
		Addr   string `json:"addr"`
	}
	if err := json.Unmarshal(out.Bytes(), &manifest); err != nil || manifest.Schema != serve.ResultSchema {
		t.Fatalf("submit output is not a manifest (err=%v): %s", err, out.String())
	}

	// addr is offline: no server flag, same spec, must name the same
	// content address the server reported.
	var addrOut bytes.Buffer
	if code := run([]string{"addr", "-policy", "LRU", "-bench", "456.hmmer", "-scale", "0.01"}, &addrOut, &errBuf); code != 0 {
		t.Fatalf("addr exit %d; stderr: %s", code, errBuf.String())
	}
	addr := strings.TrimSpace(addrOut.String())
	if addr != manifest.Addr {
		t.Fatalf("offline addr %q != server-reported addr %q", addr, manifest.Addr)
	}

	var getOut bytes.Buffer
	if code := run([]string{"get", "-server", ts.URL, addr}, &getOut, &errBuf); code != 0 {
		t.Fatalf("get exit %d; stderr: %s", code, errBuf.String())
	}
	if !bytes.Equal(getOut.Bytes(), out.Bytes()) {
		t.Error("get returned a different manifest than submit")
	}

	var metricsOut bytes.Buffer
	if code := run([]string{"metrics", "-server", ts.URL}, &metricsOut, &errBuf); code != 0 {
		t.Fatalf("metrics exit %d; stderr: %s", code, errBuf.String())
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(metricsOut.Bytes(), &snap); err != nil || snap.Counters["serve_submits"] == 0 {
		t.Errorf("metrics output unusable (err=%v): %s", err, metricsOut.String())
	}
}

func TestCtlSubmitFromSpecFile(t *testing.T) {
	ts := newBackend(t)
	spec := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(spec, []byte(`{"policy":"LRU","workloads":["456.hmmer"],"scale":0.01}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"submit", "-server", ts.URL, "-spec", spec}, &out, &errBuf); code != 0 {
		t.Fatalf("submit -spec exit %d; stderr: %s", code, errBuf.String())
	}
	// A typo'd field fails locally, naming the file, before any network.
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"policy":"LRU","wrkloads":["x"]}`), 0o644)
	errBuf.Reset()
	if code := run([]string{"submit", "-server", "http://127.0.0.1:1", "-spec", bad}, &out, &errBuf); code != 2 {
		t.Errorf("typo'd spec file: exit %d, want 2 (local strict parse)", code)
	}
	if !strings.Contains(errBuf.String(), "bad.json") {
		t.Errorf("error does not name the offending file: %s", errBuf.String())
	}
}

// TestCtlSubmitHonorsBackpressure: a 429 with Retry-After is retried
// after the server's hint, not hammered.
func TestCtlSubmitHonorsBackpressure(t *testing.T) {
	var calls int
	var firstRetryAt time.Time
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		firstRetryAt = time.Now()
		w.Write([]byte(`{"schema":1,"spec":"stub","addr":"x"}`))
	}))
	defer backend.Close()

	start := time.Now()
	var out, errBuf bytes.Buffer
	code := run([]string{"submit", "-server", backend.URL, "-policy", "LRU", "-retry", "2"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("submit exit %d; stderr: %s", code, errBuf.String())
	}
	if calls != 2 {
		t.Errorf("server saw %d calls, want 2 (one reject, one retry)", calls)
	}
	if wait := firstRetryAt.Sub(start); wait < 900*time.Millisecond {
		t.Errorf("retry arrived after %s, want >= ~1s (the Retry-After hint)", wait)
	}
	if !strings.Contains(errBuf.String(), "retrying") {
		t.Errorf("stderr does not mention the retry: %s", errBuf.String())
	}
}

func TestCtlUsageErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &out, &errBuf); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
	if code := run([]string{"submit", "-spec", "a", "-policy", "b"}, &out, &errBuf); code != 2 {
		t.Errorf("-spec and -policy together: exit %d, want 2", code)
	}
	if code := run([]string{"get", "-server", "http://x", "nothex"}, &out, &errBuf); code != 2 {
		t.Errorf("invalid get address: exit %d, want 2", code)
	}
}

// TestCtlWatchTraceMetricsProm drives the observability subcommands
// against a real backend: watch replays a finished job's lifecycle in
// order, trace -check validates the reconciled span tree, and
// metrics -format prom -lint round-trips the Prometheus exposition.
func TestCtlWatchTraceMetricsProm(t *testing.T) {
	ts := newBackend(t)

	var out, errBuf bytes.Buffer
	if code := run([]string{"submit", "-server", ts.URL, "-policy", "LRU", "-bench", "456.hmmer", "-scale", "0.01"}, &out, &errBuf); code != 0 {
		t.Fatalf("submit exit %d; stderr: %s", code, errBuf.String())
	}
	var manifest struct {
		Addr string `json:"addr"`
	}
	if err := json.Unmarshal(out.Bytes(), &manifest); err != nil {
		t.Fatal(err)
	}

	var watchOut bytes.Buffer
	errBuf.Reset()
	if code := run([]string{"watch", "-server", ts.URL, manifest.Addr}, &watchOut, &errBuf); code != 0 {
		t.Fatalf("watch exit %d; stderr: %s", code, errBuf.String())
	}
	lines := strings.Fields(strings.ReplaceAll(watchOut.String(), "\n", " "))
	first, last := lines[0], lines[len(lines)-1]
	if first != "submitted" || last != "done" {
		t.Errorf("watch output bracket = %q...%q, want submitted...done\n%s", first, last, watchOut.String())
	}
	if !strings.Contains(watchOut.String(), "[1/1]") {
		t.Errorf("watch shows no interval progress:\n%s", watchOut.String())
	}

	var traceOut bytes.Buffer
	errBuf.Reset()
	if code := run([]string{"trace", "-server", ts.URL, "-check", manifest.Addr}, &traceOut, &errBuf); code != 0 {
		t.Fatalf("trace -check exit %d; stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "trace ok") {
		t.Errorf("trace -check did not confirm: %s", errBuf.String())
	}
	if !strings.Contains(traceOut.String(), "stage:execute") {
		t.Errorf("trace output missing pipeline stages: %s", traceOut.String())
	}

	var chromeOut bytes.Buffer
	if code := run([]string{"trace", "-server", ts.URL, "-format", "chrome", manifest.Addr}, &chromeOut, &errBuf); code != 0 {
		t.Fatalf("trace -format chrome exit %d; stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(chromeOut.String(), "traceEvents") {
		t.Errorf("chrome export malformed: %s", chromeOut.String())
	}

	var promOut bytes.Buffer
	errBuf.Reset()
	if code := run([]string{"metrics", "-server", ts.URL, "-format", "prom", "-lint"}, &promOut, &errBuf); code != 0 {
		t.Fatalf("metrics -format prom -lint exit %d; stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(promOut.String(), "serve_submits_total") {
		t.Errorf("prom exposition missing serve_submits_total: %s", promOut.String())
	}
	if !strings.Contains(errBuf.String(), "exposition ok") {
		t.Errorf("lint did not confirm: %s", errBuf.String())
	}
}

// TestCtlWatchTraceUsageErrors: flag validation for the new
// subcommands fails fast, before any network traffic.
func TestCtlWatchTraceUsageErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"watch", "-server", "http://x", "nothex"}, &out, &errBuf); code != 2 {
		t.Errorf("watch bad addr: exit %d, want 2", code)
	}
	if code := run([]string{"trace", "-server", "http://x", "nothex"}, &out, &errBuf); code != 2 {
		t.Errorf("trace bad addr: exit %d, want 2", code)
	}
	addr := strings.Repeat("ab", 32)
	if code := run([]string{"trace", "-server", "http://x", "-format", "chrome", "-check", addr}, &out, &errBuf); code != 2 {
		t.Errorf("trace -check with -format chrome: exit %d, want 2", code)
	}
	if code := run([]string{"metrics", "-server", "http://x", "-lint"}, &out, &errBuf); code != 2 {
		t.Errorf("metrics -lint without -format prom: exit %d, want 2", code)
	}
	if code := run([]string{"metrics", "-server", "http://x", "-format", "bogus"}, &out, &errBuf); code != 2 {
		t.Errorf("metrics bogus format: exit %d, want 2", code)
	}
}
