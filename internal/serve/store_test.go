package serve_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sdbp/internal/memo"
	"sdbp/internal/obs"
	"sdbp/internal/serve"
)

// testAddr is a syntactically valid content address for store tests.
var testAddr = strings.Repeat("ab", 32)

func TestMemStore(t *testing.T) {
	s := serve.NewMemStore()
	if _, ok, err := s.Get(testAddr); ok || err != nil {
		t.Fatalf("empty store Get = hit=%t err=%v, want miss", ok, err)
	}
	if err := s.Put(testAddr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(testAddr)
	if err != nil || !ok || string(got) != "one" {
		t.Fatalf("Get = %q, %t, %v", got, ok, err)
	}
	// The store must hold its own copy, immune to caller mutation.
	data := []byte("two")
	s.Put(testAddr, data)
	data[0] = 'X'
	if got, _, _ := s.Get(testAddr); string(got) != "two" {
		t.Errorf("stored value mutated through the caller's slice: %q", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMemStoreDropsLeastRecentlyUsedPastBudget fills the process memo
// past its budget with the in-memory store's own results, each a third
// of memo.Budget: the least recently used result is dropped, its
// resubmission recomputes a byte-identical manifest, and /metrics
// reports the memo in lint-clean Prometheus text.
func TestMemStoreDropsLeastRecentlyUsedPastBudget(t *testing.T) {
	var execs atomic.Int64
	pad := strings.Repeat("x", memo.Budget/3)
	cfg := quietCfg()
	cfg.WrapJob = func(addr string, run func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
		return func(ctx context.Context) (serve.Result, error) {
			execs.Add(1)
			return serve.Result{Schema: serve.ResultSchema, Spec: pad, Addr: addr}, nil
		}
	}
	_, ts := newTestServer(t, cfg)
	// submitDigest submits body and returns its answer's source and a
	// digest of the manifest (the manifests are too big to keep).
	submitDigest := func(body string) (string, [32]byte) {
		t.Helper()
		resp, data := submit(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Sdbpd-Cache"), sha256.Sum256(data)
	}

	a, b, c := specN(1), specN(2), specN(3)
	_, digestA := submitDigest(a)
	_, digestB := submitDigest(b)
	// Read A back, so B is the least recently used result when C's
	// third overflows the budget.
	if resp, _ := get(t, ts, "/v1/results/"+addrOf(t, a)); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET A: HTTP %d", resp.StatusCode)
	}
	before := memo.Stats().Evictions
	submitDigest(c)
	if u := memo.Stats(); u.Evictions == before || u.Bytes > memo.Budget {
		t.Fatalf("memo after three thirds of its budget: %+v; want an eviction and at most %d bytes", u, memo.Budget)
	}
	if src, d := submitDigest(a); src != "hit" || d != digestA {
		t.Errorf("recently read result: source %q, identical %t; want a byte-identical hit", src, d == digestA)
	}
	if src, d := submitDigest(b); src != "miss" || d != digestB {
		t.Errorf("least recently used result: source %q, identical %t; want a byte-identical recompute", src, d == digestB)
	}
	if n := execs.Load(); n != 4 {
		t.Errorf("jobs run = %d, want 4: three results and the dropped one again", n)
	}

	resp, prom := get(t, ts, "/metrics?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if err := obs.LintPrometheus(prom); err != nil {
		t.Fatalf("exposition fails the lint: %v", err)
	}
	for _, series := range []string{"memo_bytes ", "memo_entries ", "memo_evictions_total "} {
		if !bytes.Contains(prom, []byte("\n"+series)) {
			t.Errorf("exposition has no %q sample", series)
		}
	}
	_, js := get(t, ts, "/metrics")
	var snap obs.Snapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatal(err)
	}
	if got, u := snap.Counters[serve.CtrMemoEvictions], memo.Stats(); got == 0 || got > u.Evictions {
		t.Errorf("%s = %d, want in [1, %d]", serve.CtrMemoEvictions, got, u.Evictions)
	}
	if got := snap.Gauges[serve.GaugeMemoEntries]; got < 2 {
		t.Errorf("%s = %g, want at least the two resident results", serve.GaugeMemoEntries, got)
	}
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := serve.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"schema":1}` + "\n")
	if err := s1.Put(testAddr, blob); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := serve.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(testAddr)
	if err != nil || !ok || !bytes.Equal(got, blob) {
		t.Fatalf("after reopen: Get = %q, %t, %v; want the original blob", got, ok, err)
	}
	if _, ok, err := s2.Get(strings.Repeat("cd", 32)); ok || err != nil {
		t.Errorf("unknown addr: hit=%t err=%v, want clean miss", ok, err)
	}
}

func TestDiskStoreRejectsInvalidAddr(t *testing.T) {
	s, err := serve.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"", "short", "../../etc/passwd", strings.Repeat("zz", 32), strings.Repeat("AB", 32)} {
		if err := s.Put(addr, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid address", addr)
		}
		if _, _, err := s.Get(addr); err == nil {
			t.Errorf("Get(%q) accepted an invalid address", addr)
		}
	}
}

// TestDiskStorePutLeavesNoTempDebris: the atomic write path must not
// strand temp files on the happy path, and an overwrite must replace
// cleanly.
func TestDiskStorePutLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := serve.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testAddr, []byte("v1"))
	s.Put(testAddr, []byte("v2"))
	got, _, _ := s.Get(testAddr)
	if string(got) != "v2" {
		t.Errorf("overwrite: Get = %q, want v2", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("store dir holds %v, want exactly one blob file", names)
	}
	if want := testAddr + ".json"; entries[0].Name() != want {
		t.Errorf("blob file = %q, want %q", entries[0].Name(), want)
	}
	if p := filepath.Join(dir, entries[0].Name()); !strings.HasSuffix(p, ".json") {
		t.Errorf("unexpected file %s", p)
	}
}
