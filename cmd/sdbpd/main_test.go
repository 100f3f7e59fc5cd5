package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

const tinySpec = `{"policy":"LRU","workloads":["456.hmmer"],"scale":0.01}`

var listenRe = regexp.MustCompile(`listening on (http://\S+)`)

// lineWatcher collects the daemon's stderr and signals once the
// "listening on" contract line names the bound address.
type lineWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	url   string
	ready chan struct{}
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.url == "" {
		if m := listenRe.FindSubmatch(w.buf.Bytes()); m != nil {
			w.url = string(m[1])
			close(w.ready)
		}
	}
	return len(p), nil
}

func (w *lineWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon runs the daemon in-process on a free port and returns
// its base URL plus a stop function that cancels the parent context —
// the same drain path a SIGTERM takes — and reports the exit code.
func startDaemon(t *testing.T, args ...string) (base string, stop func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := &lineWatcher{ready: make(chan struct{})}
	done := make(chan int, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, w) }()
	select {
	case <-w.ready:
	case <-time.After(15 * time.Second):
		cancel()
		t.Fatalf("daemon never announced its address; stderr so far:\n%s", w.String())
	}
	stopped := false
	stop = func() int {
		stopped = true
		cancel()
		select {
		case code := <-done:
			return code
		case <-time.After(60 * time.Second):
			t.Fatalf("daemon did not exit after cancel; stderr:\n%s", w.String())
			return -1
		}
	}
	t.Cleanup(func() {
		if !stopped {
			stop()
		}
	})
	return w.url, stop
}

func postJob(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
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

func counterValue(t *testing.T, base, name string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters[name]
}

// TestDaemonCacheHitThenCrashResume is the daemon-level end-to-end: a
// resubmitted spec is a cache hit, and a second daemon started on the
// same -store-dir, while the first is dropped without a drain, answers
// the byte-identical manifest as a cache hit without submitting a job,
// also while a running job holds its only run slot.
func TestDaemonCacheHitThenCrashResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")

	base, _ := startDaemon(t, "-store-dir", dir)
	resp1, body1 := postJob(t, base, tinySpec)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: HTTP %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := postJob(t, base, tinySpec)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body1, body2) {
		t.Fatalf("resubmit: HTTP %d, identical=%t", resp2.StatusCode, bytes.Equal(body1, body2))
	}
	if src := resp2.Header.Get("X-Sdbpd-Cache"); src != "hit" {
		t.Errorf("resubmit source = %q, want hit", src)
	}
	if hits := counterValue(t, base, "serve_cache_hits"); hits < 1 {
		t.Errorf("serve_cache_hits = %d, want >= 1", hits)
	}

	// The first daemon is never drained; the second takes over its
	// directory as a restart after a crash would.
	base2, stop2 := startDaemon(t, "-store-dir", dir, "-workers", "1")
	hit := func(when string) {
		t.Helper()
		resp, body := postJob(t, base2, tinySpec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", when, resp.StatusCode, body)
		}
		if src := resp.Header.Get("X-Sdbpd-Cache"); src != "hit" {
			t.Errorf("%s: source = %q, want hit", when, src)
		}
		if !bytes.Equal(body1, body) {
			t.Errorf("%s: manifest differs from the original:\n%s\nvs\n%s", when, body1, body)
		}
	}
	hit("after the restart")
	if got := counterValue(t, base2, "runner_jobs_submitted"); got != 0 {
		t.Errorf("runner_jobs_submitted = %d, want 0 (a stored result needs no job)", got)
	}

	// A full-scale job holds the only run slot for about half a second
	// on a 2-CPU host; the stored result must not wait for it.
	blocked := make(chan int, 1)
	go func() {
		resp, err := http.Post(base2+"/v1/jobs", "application/json", strings.NewReader(`{"policy":"LRU","workloads":["429.mcf"]}`))
		if err != nil {
			t.Error(err)
			blocked <- 0
			return
		}
		resp.Body.Close()
		blocked <- resp.StatusCode
	}()
	deadline := time.Now().Add(15 * time.Second)
	for counterValue(t, base2, "runner_jobs_submitted") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the blocking job never started")
		}
		time.Sleep(time.Millisecond)
	}
	hit("while a job holds the only run slot")
	if got := counterValue(t, base2, "runner_jobs_succeeded"); got != 0 {
		t.Errorf("runner_jobs_succeeded = %d right after the hit, want 0: the job should still hold the slot", got)
	}
	if code := <-blocked; code != http.StatusOK {
		t.Errorf("blocking job: HTTP %d", code)
	}
	if code := stop2(); code != 0 {
		t.Fatalf("second daemon exit code = %d", code)
	}
}

// TestDaemonRejectsBadFlags: the journal, backend and log-level flags
// are gone, and an invocation that still passes one fails loudly
// instead of running without it.
func TestDaemonRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-store", "disk"}, {"-checkpoint", "sdbpd.ckpt"}, {"-resume"}, {"-log-level", "warn"}} {
		var errBuf bytes.Buffer
		if code := run(context.Background(), args, io.Discard, &errBuf); code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr: %s", args, code, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: stderr does not name the bad flag: %s", args, errBuf.String())
		}
	}
}

func TestDaemonDiskStoreServesResultsEndpoint(t *testing.T) {
	dir := t.TempDir()
	base, _ := startDaemon(t, "-store-dir", filepath.Join(dir, "store"))
	resp, body := postJob(t, base, tinySpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	addr := resp.Header.Get("X-Sdbpd-Addr")
	if addr == "" {
		t.Fatal("submit response missing X-Sdbpd-Addr")
	}
	got, err := http.Get(fmt.Sprintf("%s/v1/results/%s", base, addr))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	data, _ := io.ReadAll(got.Body)
	if got.StatusCode != http.StatusOK || !bytes.Equal(data, body) {
		t.Errorf("results endpoint: HTTP %d, identical=%t", got.StatusCode, bytes.Equal(data, body))
	}
}
