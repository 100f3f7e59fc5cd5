package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sdbp/internal/obs"
	"sdbp/internal/serve"
)

// traceOf fetches and decodes a job's trace.
func traceOf(t *testing.T, ts *httptest.Server, addr string) []obs.SpanRecord {
	t.Helper()
	resp, body := get(t, ts, "/v1/traces/"+addr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: HTTP %d: %s", resp.StatusCode, body)
	}
	var tb struct {
		Trace string           `json:"trace"`
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(body, &tb); err != nil {
		t.Fatalf("trace body does not parse: %v\n%s", err, body)
	}
	if tb.Trace == "" {
		t.Error("trace has no ID")
	}
	return tb.Spans
}

// spanNames collects the names present in a trace.
func spanNames(spans []obs.SpanRecord) map[string]int {
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	return names
}

// TestJobTraceCompleteAndReconciles is the tentpole acceptance test: a
// real (tiny) simulation yields a complete trace — every pipeline
// stage present, parent links intact — whose stage spans sum-reconcile
// against the end-to-end job latency (CheckTrace).
func TestJobTraceCompleteAndReconciles(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	resp, body := submit(t, ts, tinySpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	addr := resp.Header.Get("X-Sdbpd-Addr")

	spans := traceOf(t, ts, addr)
	if err := serve.CheckTrace(spans); err != nil {
		t.Errorf("trace does not reconcile: %v\nspans: %+v", err, spans)
	}
	names := spanNames(spans)
	for _, want := range []string{
		"job", "stage:decode", "stage:cache_lookup", "stage:execute",
		"queue_wait", "run", "attempt", "store",
	} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span: have %v", want, names)
		}
	}
	for _, sp := range spans {
		if sp.Name == "job" {
			if sp.Attrs["addr"] != addr || sp.Attrs["source"] != "miss" {
				t.Errorf("root attrs = %v, want addr=%s source=miss", sp.Attrs, addr)
			}
		}
		if sp.Name == "attempt" && sp.Attrs["outcome"] != "ok" {
			t.Errorf("attempt attrs = %v, want outcome=ok", sp.Attrs)
		}
	}
}

// TestCachedSubmissionTrace: a cache hit's trace is just decode +
// lookup under the root, and it still reconciles.
func TestCachedSubmissionTrace(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	resp, _ := submit(t, ts, tinySpec)
	addr := resp.Header.Get("X-Sdbpd-Addr")
	resp2, _ := submit(t, ts, tinySpec)
	if src := resp2.Header.Get("X-Sdbpd-Cache"); src != "hit" {
		t.Fatalf("second submit source = %q, want hit", src)
	}

	spans := traceOf(t, ts, addr)
	if err := serve.CheckTrace(spans); err != nil {
		t.Errorf("cached trace does not reconcile: %v", err)
	}
	names := spanNames(spans)
	if names["job"] != 1 || names["stage:decode"] != 1 || names["stage:cache_lookup"] != 1 {
		t.Errorf("cached trace spans = %v", names)
	}
	if names["stage:execute"] != 0 {
		t.Errorf("cache hit grew an execute stage: %v", names)
	}
	for _, sp := range spans {
		if sp.Name == "job" && sp.Attrs["source"] != "hit" {
			t.Errorf("root source = %q, want hit", sp.Attrs["source"])
		}
	}
}

// TestTraceChromeExport: ?format=chrome renders a loadable trace-event
// document.
func TestTraceChromeExport(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	resp, _ := submit(t, ts, tinySpec)
	addr := resp.Header.Get("X-Sdbpd-Addr")
	cresp, body := get(t, ts, "/v1/traces/"+addr+"?format=chrome")
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export: HTTP %d", cresp.StatusCode)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 5 {
		t.Errorf("chrome export has %d events, want the full pipeline", len(doc.TraceEvents))
	}
}

// TestTraceErrors: addresses that are malformed or unknown.
func TestTraceErrors(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	if resp, _ := get(t, ts, "/v1/traces/nothex"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed addr: HTTP %d, want 400", resp.StatusCode)
	}
	unknown := serve.Addr("no such spec")
	if resp, _ := get(t, ts, "/v1/traces/"+unknown); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown addr: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestCheckTraceRejects drives the validator with broken traces.
func TestCheckTraceRejects(t *testing.T) {
	t0 := time.Now()
	ok := []obs.SpanRecord{
		{TraceID: "t1", ID: "1", Name: "job", Start: t0, Duration: 100 * time.Millisecond},
		{TraceID: "t1", ID: "2", Parent: "1", Name: "stage:decode", Start: t0, Duration: 40 * time.Millisecond},
		{TraceID: "t1", ID: "3", Parent: "1", Name: "stage:execute", Start: t0.Add(40 * time.Millisecond), Duration: 60 * time.Millisecond},
	}
	if err := serve.CheckTrace(ok); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	broken := map[string]func([]obs.SpanRecord) []obs.SpanRecord{
		"empty":   func(s []obs.SpanRecord) []obs.SpanRecord { return nil },
		"no root": func(s []obs.SpanRecord) []obs.SpanRecord { return s[1:] },
		"two roots": func(s []obs.SpanRecord) []obs.SpanRecord {
			return append(s, obs.SpanRecord{TraceID: "t1", ID: "9", Name: "job2", Start: t0, Duration: time.Millisecond})
		},
		"bad parent":  func(s []obs.SpanRecord) []obs.SpanRecord { c := clone(s); c[2].Parent = "404"; return c },
		"mixed trace": func(s []obs.SpanRecord) []obs.SpanRecord { c := clone(s); c[2].TraceID = "t2"; return c },
		"unended":     func(s []obs.SpanRecord) []obs.SpanRecord { c := clone(s); c[2].Duration = 0; return c },
		"escapes parent": func(s []obs.SpanRecord) []obs.SpanRecord {
			c := clone(s)
			c[2].Duration = 200 * time.Millisecond
			return c
		},
		"sum mismatch": func(s []obs.SpanRecord) []obs.SpanRecord {
			c := clone(s)
			c[2].Duration = 10 * time.Millisecond // stages cover 50ms of a 100ms job
			return c
		},
	}
	for name, mutate := range broken {
		t.Run(name, func(t *testing.T) {
			if err := serve.CheckTrace(mutate(ok)); err == nil {
				t.Error("broken trace accepted")
			}
		})
	}
}

func clone(s []obs.SpanRecord) []obs.SpanRecord {
	return append([]obs.SpanRecord(nil), s...)
}
