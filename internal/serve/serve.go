// Package serve is the simulation service behind cmd/sdbpd: it turns
// the repository's batch evaluation machinery (declarative exp.Spec
// experiments executed through the fault-tolerant internal/runner
// pool) into a long-running HTTP service that stays correct and
// responsive under overload, faults and restarts.
//
// A submission flows through a fixed pipeline, every stage of which is
// bounded:
//
//	decode → resolve → content address → result store
//	       → singleflight → bounded admission queue
//	       → one of Workers run slots → runner → result store
//
// Stage by stage:
//
//   - The canonical spec expression (exp.Resolved.String) gives every
//     experiment an exact content address; submissions of one
//     configuration share one stored result, however the policy is
//     spelled (see Addr for which spellings are identical).
//   - Concurrent identical submissions collapse in the singleflight
//     layer: N in-flight duplicates cost one simulation.
//   - The singleflight leader runs its own job. It takes an admission
//     token — a full queue answers 429 + Retry-After instead of growing
//     goroutines — then waits for one of Config.Workers run slots and
//     runs the job as a one-job runner.Run, inheriting the runner's
//     panic isolation and per-job timeout.
//   - The result Store is the one copy of every result. A DiskStore
//     writes each result before it is answered, so a server restarted
//     on the same directory, after a drain or a crash, answers every
//     finished job as a cache hit. Shutdown drains: admission closes,
//     queued work settles with 503, in-flight simulations finish and
//     store their results.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sdbp/internal/exp"
	"sdbp/internal/memo"
	"sdbp/internal/obs"
	"sdbp/internal/runner"
)

// Config tunes a Server. The zero value is usable: every field has a
// serving-grade default.
type Config struct {
	// Queue bounds the admission queue, the admitted jobs waiting for
	// a run slot; 0 means 64. A full queue is explicit backpressure:
	// 429 + Retry-After.
	Queue int
	// Workers caps concurrently running jobs; 0 means NumCPU.
	Workers int
	// JobTimeout bounds each job; 0 means no limit.
	JobTimeout time.Duration
	// Store is the result cache backend; nil means NewMemStore.
	Store Store
	// Log receives degradation warnings; nil means log.Default().
	Log *log.Logger
	// WrapJob, when non-nil, wraps every job body before execution.
	// It exists for fault injection in tests (panics, slowness,
	// canned results) and is not used in production.
	WrapJob func(addr string, run func(ctx context.Context) (Result, error)) func(ctx context.Context) (Result, error)
}

const (
	// maxBody caps a submission body in bytes.
	maxBody = 1 << 20
	// retryAfterSeconds is the hint returned with 429/503.
	retryAfterSeconds = 1
)

func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Server is the simulation service. Create with New, expose Handler
// over any http.Server, stop with Shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	store   Store
	flights *flightGroup
	adm     *admission
	jobs    *jobTable

	ready   atomic.Bool
	runCtx  context.Context
	cancel  context.CancelFunc
	started time.Time
}

// New builds a server; the caller owns serving its Handler.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     obs.NewRegistry(),
		store:   cfg.Store,
		flights: newFlightGroup(),
		adm:     newAdmission(cfg.Queue, cfg.Workers),
		jobs:    newJobTable(),
		started: time.Now(),
	}
	// Every counter the server or its runner can raise reads 0 from
	// the first scrape, so a scraper can tell 0 from a missing metric.
	// The runner's checkpoint and retry counters are not among them:
	// the server runs jobs once, with no checkpoint.
	for _, name := range []string{
		CtrHTTPRequests, CtrSubmits, CtrBadRequests, CtrCacheHits, CtrCacheMisses,
		CtrSingleflightShared, CtrQueueRejects, CtrShutdownRejects, CtrStoreErrors,
		obs.CtrJobsSubmitted, obs.CtrJobsSucceeded, obs.CtrJobsFailed,
		obs.CtrJobsDrained, obs.CtrJobTimeouts, obs.CtrJobPanics,
	} {
		s.reg.Counter(name)
	}
	s.runCtx, s.cancel = context.WithCancel(context.Background())
	s.ready.Store(true)
	return s
}

// Shutdown drains the server: admission closes immediately (new work
// gets 503 + Retry-After; cached results are still served), queued
// jobs settle with 503, and running jobs finish their simulations and
// store their results. It returns ctx.Err() if draining outlives the
// deadline, and then abandons the stragglers.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.ready.CompareAndSwap(true, false) {
		return nil
	}
	err := s.adm.drain(ctx)
	// Cancel the run context only once the drain has settled: canceling
	// it earlier would abandon the running jobs mid-simulation (the
	// runner observes cancellation immediately), turning the drain
	// guarantee into a 503. After a drain timeout this cancel is what
	// force-abandons the stragglers.
	s.cancel()
	return err
}

// Handler returns the server's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/results/{addr}", s.handleResult)
	mux.HandleFunc("GET /v1/traces/{addr}", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{addr}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter(CtrHTTPRequests).Inc()
		mux.ServeHTTP(w, r)
	})
}

// errorBody is the JSON envelope for every non-200 response.
type errorBody struct {
	Error string `json:"error"`
	// Addr is the submission's content address when it resolved far
	// enough to have one.
	Addr string `json:"addr,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, addr string, err error) {
	body := errorBody{Error: err.Error(), Addr: addr}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		body.RetryAfterSeconds = retryAfterSeconds
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(body)
	w.Write(append(b, '\n'))
}

// handleSubmit is the job intake: decode strictly, resolve to the
// canonical spec, and answer from the cache, an in-flight duplicate,
// or a freshly admitted job — in that order, cheapest first. The
// whole path runs under one job trace whose contiguous stage spans
// (decode, cache_lookup, execute) reconcile against the root span —
// which ends immediately before the response is written.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tr, root := obs.NewTrace("job")
	decSpan := root.StartChild("stage:decode")
	var spec exp.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		decSpan.End()
		root.End()
		s.reg.Counter(CtrBadRequests).Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "", err)
			return
		}
		s.writeError(w, http.StatusBadRequest, "", fmt.Errorf("decoding spec: %w", err))
		return
	}
	resolved, err := spec.Resolve()
	if err != nil {
		decSpan.End()
		root.End()
		s.reg.Counter(CtrBadRequests).Inc()
		s.writeError(w, http.StatusBadRequest, "", err)
		return
	}
	canonical := resolved.String()
	addr := Addr(canonical)
	decSpan.End()
	root.SetAttr("addr", addr)
	s.reg.Counter(CtrSubmits).Inc()
	w.Header().Set("X-Sdbpd-Addr", addr)
	// Register the trace and open the event feed as soon as the address
	// exists: a mid-flight GET /v1/traces/{addr} sees the stages so far,
	// and watchers get the full lifecycle from "submitted" on.
	s.jobs.submitted(addr, tr)

	lookSpan := root.StartChild("stage:cache_lookup")
	data, ok := s.cacheGet(addr)
	lookSpan.End()
	if ok {
		s.reg.Counter(CtrCacheHits).Inc()
		root.SetAttr("source", "hit")
		root.End()
		s.jobs.publish(addr, "cached", "", 0, 0)
		s.jobs.finish(addr, "done", "")
		s.writeResult(w, data, "hit")
		return
	}
	s.reg.Counter(CtrCacheMisses).Inc()

	if !s.ready.Load() {
		root.SetAttr("error", errShuttingDown.Error())
		root.End()
		s.reg.Counter(CtrShutdownRejects).Inc()
		s.jobs.finish(addr, "failed", errShuttingDown.Error())
		s.writeError(w, http.StatusServiceUnavailable, addr, errShuttingDown)
		return
	}

	execSpan := root.StartChild("stage:execute")
	data, err, joined := s.flights.Do(addr, func() ([]byte, error) {
		// A flight for this address may have completed and cached
		// between our miss and taking the flight lock; counting it as a
		// hit keeps the invariant that N identical concurrent
		// submissions record exactly one simulation and N-1
		// cache/singleflight hits, however the race lands.
		if data, ok := s.cacheGet(addr); ok {
			s.reg.Counter(CtrCacheHits).Inc()
			execSpan.SetAttr("source", "cache-race")
			return data, nil
		}
		return s.execute(execSpan, addr, canonical, resolved)
	})
	if joined {
		s.reg.Counter(CtrSingleflightShared).Inc()
		execSpan.SetAttr("joined", "true")
	}
	execSpan.End()
	switch {
	case err == nil:
		source := "miss"
		if joined {
			source = "flight"
		}
		root.SetAttr("source", source)
		root.End()
		s.jobs.finish(addr, "done", "")
		s.writeResult(w, data, source)
	case errors.Is(err, errQueueFull):
		root.SetAttr("error", err.Error())
		root.End()
		s.reg.Counter(CtrQueueRejects).Inc()
		s.jobs.finish(addr, "failed", err.Error())
		s.writeError(w, http.StatusTooManyRequests, addr, err)
	case errors.Is(err, errShuttingDown), errors.Is(err, context.Canceled):
		root.SetAttr("error", errShuttingDown.Error())
		root.End()
		s.reg.Counter(CtrShutdownRejects).Inc()
		s.jobs.finish(addr, "failed", errShuttingDown.Error())
		s.writeError(w, http.StatusServiceUnavailable, addr, errShuttingDown)
	default:
		root.SetAttr("error", err.Error())
		root.End()
		s.jobs.finish(addr, "failed", err.Error())
		s.writeError(w, http.StatusInternalServerError, addr, err)
	}
}

// execute runs one cache-miss job and returns its manifest. Its stages
// are the execute span's children: queue_wait (an admission token,
// then a run slot), run (a one-job runner.Run with its attempt child)
// and store. The job holds its run slot until its result is stored.
func (s *Server) execute(exec *obs.Span, addr, spec string, resolved *exp.Resolved) ([]byte, error) {
	queue := exec.StartChild("queue_wait")
	s.jobs.publish(addr, "queued", "", 0, 0)
	if err := s.adm.acquire(); err != nil {
		queue.SetAttr("error", err.Error())
		queue.End()
		return nil, err
	}
	defer s.adm.release()
	queue.End()

	run := exec.StartChild("run")
	s.jobs.publish(addr, "running", "", 0, 0)
	job := func(ctx context.Context) (Result, error) {
		return ExecuteSpec(ctx, resolved, s.reg, func(done, total int, name string) {
			s.jobs.publish(addr, "progress", name, done, total)
		})
	}
	if s.cfg.WrapJob != nil {
		job = s.cfg.WrapJob(addr, job)
	}
	set := runner.Run(s.runCtx, []runner.Job[Result]{{Key: spec, Run: job, Span: run}}, runner.Options{
		Workers: 1,
		Timeout: s.cfg.JobTimeout,
		Obs:     s.reg,
	})
	res, ok := set.Value(spec)
	if !ok {
		err := set.Err(spec)
		run.SetAttr("error", err.Error())
		run.End()
		return nil, err
	}
	run.End()

	storeSpan := exec.StartChild("store")
	defer storeSpan.End()
	data, err := res.Marshal()
	if err != nil {
		storeSpan.SetAttr("error", err.Error())
		return nil, err
	}
	// A storage failure degrades the cache, not the request: the
	// submitter still gets its manifest, the next identical submission
	// just recomputes.
	if err := s.store.Put(addr, data); err != nil {
		s.reg.Counter(CtrStoreErrors).Inc()
		storeSpan.SetAttr("error", err.Error())
		s.cfg.Log.Printf("serve: caching result %s: %v", addr, err)
	}
	// "stored" precedes the waiters' terminal "done", which the handler
	// publishes once this returns.
	s.jobs.publish(addr, "stored", "", 0, 0)
	return data, nil
}

// cacheGet consults the store, absorbing backend failures as misses
// (degraded cache, the pipeline recomputes).
func (s *Server) cacheGet(addr string) ([]byte, bool) {
	data, ok, err := s.store.Get(addr)
	if err != nil {
		s.reg.Counter(CtrStoreErrors).Inc()
		s.cfg.Log.Printf("serve: cache get %s: %v", addr, err)
		return nil, false
	}
	return data, ok
}

func (s *Server) writeResult(w http.ResponseWriter, data []byte, source string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sdbpd-Cache", source)
	w.Write(data)
}

// handleResult serves a cached manifest by content address; it works
// during drain too, so pollers can pick up results a dying server
// finished.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	if !ValidAddr(addr) {
		s.writeError(w, http.StatusBadRequest, "", fmt.Errorf("serve: %q is not a result address (64 hex digits)", addr))
		return
	}
	data, ok := s.cacheGet(addr)
	if !ok {
		s.writeError(w, http.StatusNotFound, addr, fmt.Errorf("serve: no result for %s", addr))
		return
	}
	s.writeResult(w, data, "hit")
}

// handleHealthz answers 200 while the process lives — liveness only.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers 200 while the server accepts new work and 503
// once draining, so load balancers stop routing before shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the registry, content-negotiated: the JSON
// obs.Snapshot by default (the original wire format, kept for existing
// consumers), or Prometheus text exposition when the client asks for
// text/plain or openmetrics — or forces it with ?format=prom.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Gauge(GaugeQueueDepth).Set(float64(s.adm.depth()))
	u := memo.Stats()
	s.reg.Gauge(GaugeMemoBytes).Set(float64(u.Bytes))
	s.reg.Gauge(GaugeMemoEntries).Set(float64(u.Entries))
	s.reg.Counter(CtrMemoEvictions).Raise(u.Evictions)
	snap := s.reg.Snapshot()
	if wantsPrometheus(r) {
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, snap); err != nil {
			s.writeError(w, http.StatusInternalServerError, "", err)
			return
		}
		w.Header().Set("Content-Type", obs.ContentTypePrometheus)
		w.Write(buf.Bytes())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "", err)
		return
	}
	w.Write(append(b, '\n'))
}

// wantsPrometheus decides the /metrics representation: explicit
// ?format=prom wins, then an Accept header naming text/plain or an
// openmetrics type (a Prometheus scraper); everything else — including
// no Accept at all — stays JSON.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// Registry exposes the server's metrics registry (for embedding tools
// and tests).
func (s *Server) Registry() *obs.Registry { return s.reg }
