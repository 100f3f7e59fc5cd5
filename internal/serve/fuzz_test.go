package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdbp/internal/serve"
)

// FuzzSubmitDecode throws arbitrary bytes at the job-submission
// endpoint. Whatever arrives, the handler must not panic, must answer
// with one of its documented statuses, and must wrap every non-200 in
// the JSON error envelope. Execution is stubbed out, so the fuzzer
// explores the decode/resolve/admission surface, not the simulator.
func FuzzSubmitDecode(f *testing.F) {
	// Well-formed submissions.
	f.Add(`{"policy":"LRU","workloads":["456.hmmer"],"scale":0.01}`)
	f.Add(`{"policy":"Sampler","workloads":["subset"]}`)
	f.Add(`{"policy":"dbrb(base=random(seed=9),pred=sampler(sets=64))","mixes":["all"],"cores":4,"scale":0.1}`)
	// The FuzzParseSpec corpus, embedded where the policy registry
	// expression lands — the server hands this string to the same
	// parser, so its known-nasty seeds transfer.
	for _, expr := range []string{
		"policy=Sampler;workloads=subset",
		"policy=dbrb(base=random(seed=9),pred=sampler(sets=64));mixes=all;cores=4;llc=llc(kb=512,ways=8);scale=0.1",
		"policy==;;=",
		"workloads=,,,",
		"policy=lru;scale=1e309",
		"(((",
	} {
		enc, _ := json.Marshal(expr)
		f.Add(fmt.Sprintf(`{"policy":%s}`, enc))
	}
	// Malformed JSON, unknown fields, wrong types, pathological sizes.
	f.Add(``)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"policy":"LRU","bogus_field":1}`)
	f.Add(`{"policy":42}`)
	f.Add(`{"scale":-1}`)
	f.Add(`{"policy":"LRU","scale":1e309}`)
	f.Add(`{"policy":"` + strings.Repeat("(", 4096) + `"}`)

	cfg := serve.Config{
		Log:     log.New(io.Discard, "", 0),
		Workers: 2,
		WrapJob: func(addr string, run func(context.Context) (serve.Result, error)) func(context.Context) (serve.Result, error) {
			return func(ctx context.Context) (serve.Result, error) {
				return serve.Result{Schema: serve.ResultSchema, Spec: "fuzz", Addr: addr}, nil
			}
		},
	}
	s := serve.New(cfg)
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	handler := s.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
		handler.ServeHTTP(rec, req)

		switch rec.Code {
		case 200, 400, 413, 429, 503:
		default:
			t.Fatalf("submission answered HTTP %d, outside the documented set {200,400,413,429,503}\nbody: %q", rec.Code, body)
		}
		if rec.Code != 200 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("HTTP %d response is not the JSON error envelope: %q", rec.Code, rec.Body.String())
			}
		} else if !bytes.Contains(rec.Body.Bytes(), []byte(`"schema"`)) {
			t.Fatalf("HTTP 200 without a schema-tagged manifest: %q", rec.Body.String())
		}
	})
}
