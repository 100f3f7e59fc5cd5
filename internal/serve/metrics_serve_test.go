package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sdbp/internal/obs"
	"sdbp/internal/serve"
)

// getAccept fetches path with an Accept header.
func getAccept(t *testing.T, url, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestMetricsContentNegotiation: JSON stays the default wire format;
// Prometheus text is served to scrapers (Accept) and on request
// (?format=prom), and always passes the exposition lint.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	submit(t, ts, tinySpec)

	// Default: the JSON snapshot, unchanged for existing consumers.
	resp, body := get(t, ts, "/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default content type = %q, want application/json", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("default /metrics is not the JSON snapshot: %v", err)
	}
	if snap.Counters[serve.CtrSubmits] != 1 {
		t.Errorf("submits counter = %d, want 1", snap.Counters[serve.CtrSubmits])
	}

	for name, fetch := range map[string]func() (*http.Response, []byte){
		"accept text/plain": func() (*http.Response, []byte) {
			return getAccept(t, ts.URL+"/metrics", "text/plain; version=0.0.4")
		},
		"accept openmetrics": func() (*http.Response, []byte) {
			return getAccept(t, ts.URL+"/metrics", "application/openmetrics-text")
		},
		"format=prom": func() (*http.Response, []byte) {
			return get(t, ts, "/metrics?format=prom")
		},
	} {
		t.Run(name, func(t *testing.T) {
			resp, body := fetch()
			if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
				t.Errorf("content type = %q, want %q", ct, obs.ContentTypePrometheus)
			}
			if err := obs.LintPrometheus(body); err != nil {
				t.Errorf("exposition fails lint: %v\n%s", err, body)
			}
			if !strings.Contains(string(body), "serve_submits_total") {
				t.Errorf("exposition missing serve_submits_total:\n%s", body)
			}
		})
	}

	// ?format=json wins over a scraper Accept header.
	resp, body = getAccept(t, ts.URL+"/metrics?format=json", "text/plain")
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Errorf("format=json did not return JSON: %v", err)
	}
	_ = resp
}

// TestFreshServerListsCountersAtZero: before any job, /metrics lists
// the runner and serve counters at 0 in both formats, so a scraper can
// tell 0 from a metric that does not exist.
func TestFreshServerListsCountersAtZero(t *testing.T) {
	_, ts := newTestServer(t, quietCfg())
	_, body := get(t, ts, "/metrics")
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not the JSON snapshot: %v", err)
	}
	_, prom := get(t, ts, "/metrics?format=prom")
	if err := obs.LintPrometheus(prom); err != nil {
		t.Errorf("exposition fails lint: %v\n%s", err, prom)
	}
	for _, name := range []string{obs.CtrJobsSubmitted, serve.CtrCacheHits} {
		if v, ok := snap.Counters[name]; !ok || v != 0 {
			t.Errorf("JSON counter %s = %d (present %t), want present at 0", name, v, ok)
		}
		if !strings.Contains(string(prom), "\n"+name+"_total 0\n") {
			t.Errorf("exposition lacks %s_total 0:\n%s", name, prom)
		}
	}
}

// TestMetricsUnderLoad is the satellite contract: concurrent /metrics
// scrapes in both formats race live job submissions (run under -race
// in CI), every scrape stays well-formed, and the exposition lints.
func TestMetricsUnderLoad(t *testing.T) {
	cfg := quietCfg()
	cfg.WrapJob = cannedJob(nil)
	_, ts := newTestServer(t, cfg)

	const submitters, scrapers, rounds = 4, 4, 20
	var wg sync.WaitGroup
	errs := make(chan error, submitters+scrapers)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				spec := fmt.Sprintf(`{"policy":"LRU","workloads":["456.hmmer"],"scale":0.0%d%d}`, i+1, j%10)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func(prom bool) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				url := ts.URL + "/metrics"
				if prom {
					url += "?format=prom"
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if prom {
					if err := obs.LintPrometheus(body); err != nil {
						errs <- fmt.Errorf("scrape %d fails lint: %w", j, err)
						return
					}
				} else if !json.Valid(body) {
					errs <- fmt.Errorf("scrape %d is not valid JSON", j)
					return
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
