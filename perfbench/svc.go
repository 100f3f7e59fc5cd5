package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/mem"
	"sdbp/internal/obs"
	"sdbp/internal/serve"
)

// svc-mixed drives an in-process serve.Server behind a loopback HTTP
// listener as a closed loop: svcClients clients, each submitting its next
// spec as soon as the previous one answered. Specs are single-benchmark
// runs at svcScale, so every stream fits the workloads stream memo.

const (
	svcScale   = 0.05
	svcClients = 2
	// svcResubmitEvery makes every fourth submission a resubmission of an
	// earlier spec: a cache hit, or a singleflight join while that spec
	// still runs.
	svcResubmitEvery = 4
	// svcTracedCells is how many distinct miss specs the traced run
	// rebuilds through the layer loop to attribute the run stage.
	svcTracedCells = 24
)

// svcPolicies is every preset of the policy registry.
var svcPolicies = []string{
	"LRU", "Random", "DIP", "TADIP", "RRIP", "Sampler", "TDBP", "CDBP",
	"Random Sampler", "Random CDBP", "PLRU", "NRU", "PLRU Sampler", "NRU Sampler",
	"Bursts", "AIP", "SamplingCounting", "TimeBased", "Dueling Sampler", "SHiP",
	"Skewed DBP", "Improved DBP",
}

var svcLLCs = []string{
	"llc(kb=256,ways=8)", "llc(kb=256,ways=16)", "llc(kb=512,ways=8)", "llc(kb=512,ways=16)",
	"llc(mb=1,ways=8)", "llc(mb=1,ways=16)", "llc(mb=2,ways=8)", "llc(mb=2,ways=16)",
	"llc(mb=4,ways=8)", "llc(mb=4,ways=16)", "llc(mb=8,ways=8)", "llc(mb=8,ways=16)",
}

// svcPool is every spec a run may submit: the sc-sweep benchmarks (equal
// stream lengths) × svcPolicies × svcLLCs.
func svcPool() []exp.Spec {
	var out []exp.Spec
	for _, b := range scBenches {
		for _, p := range svcPolicies {
			for _, l := range svcLLCs {
				out = append(out, exp.Spec{Policy: p, Workloads: []string{b}, Scale: svcScale, LLC: l})
			}
		}
	}
	return out
}

func svcKey(s exp.Spec) string { return s.Workloads[0] + "|" + s.Policy + "|" + s.LLC }

// svcPlan draws a run's submission sequence as indices into the pool:
// the pool in seeded order, with every svcResubmitEvery-th submission a
// resubmission of a spec sent at least two submissions earlier.
func svcPlan(seed int64, pool int) []int {
	r := rand.New(rand.NewSource(seed))
	fresh := r.Perm(pool)
	var seq, sent []int
	for len(fresh) > 0 {
		if len(seq)%svcResubmitEvery == svcResubmitEvery-1 && len(sent) > 2 {
			seq = append(seq, sent[r.Intn(len(sent)-2)])
			continue
		}
		seq = append(seq, fresh[0])
		sent = append(sent, fresh[0])
		fresh = fresh[1:]
	}
	return seq
}

// svcInputs marshals every pool spec's submission body.
func svcInputs() (bodies [][]byte, keys []string, err error) {
	for _, s := range svcPool() {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, b)
		keys = append(keys, svcKey(s))
	}
	return bodies, keys, nil
}

type svcServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
	client *http.Client
}

// startServer starts a service with its default configuration on a
// loopback port and returns once /readyz answers.
func startServer() (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &svcServer{
		srv:    serve.New(serve.Config{}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	resp, err := s.client.Get(s.base + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz answered %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop drains the service, closes the listener, and waits for the serve
// loop to return.
func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

func (s *svcServer) get(path string, into any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// svcResult is one answered submission.
type svcResult struct {
	key    string
	source string // X-Sdbpd-Cache: miss, hit or flight
	addr   string
	lat    time.Duration
	err    error
}

// submit posts one spec and reads the whole answer.
func (s *svcServer) submit(body []byte) (source, addr string, manifest []byte, err error) {
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", nil, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return resp.Header.Get("X-Sdbpd-Cache"), resp.Header.Get("X-Sdbpd-Addr"), data, nil
}

// verifyManifest checks a job manifest's statistics against the spec's
// reference digest.
func verifyManifest(refs refs, key string, data []byte) error {
	var m serve.Result
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("svc-mixed %s: manifest: %w", key, err)
	}
	if len(m.Benches) != 1 {
		return fmt.Errorf("svc-mixed %s: manifest holds %d benchmark results, want 1", key, len(m.Benches))
	}
	b := m.Benches[0]
	return refs.verify("svc-mixed", key, svcStats(b.IPC, b.Cycles, b.Instructions, b.LLC))
}

// drive runs the closed loop until d has passed or the plan is
// exhausted, and returns every answered submission with the loop's wall
// time. after, when non-nil, runs in the client after each answer,
// outside its latency.
func (s *svcServer) drive(d time.Duration, seq []int, bodies [][]byte, keys []string, refs refs, after func(svcResult)) ([]svcResult, time.Duration) {
	var next atomic.Int64
	per := make([][]svcResult, svcClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				spec := seq[i]
				t0 := time.Now()
				source, addr, data, err := s.submit(bodies[spec])
				r := svcResult{key: keys[spec], source: source, addr: addr, lat: time.Since(t0), err: err}
				if err == nil {
					r.err = verifyManifest(refs, r.key, data)
				}
				if after != nil {
					after(r)
				}
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []svcResult
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out, elapsed
}

// metricsSnapshot is the slice of GET /metrics (JSON form) the
// benchmark reads.
type metricsSnapshot struct {
	Counters   map[string]uint64 `json:"counters"`
	Histograms map[string]struct {
		Count uint64  `json:"count"`
		P50   float64 `json:"p50"`
	} `json:"histograms"`
}

func runSvcMixed(cfg config, refs refs) (*report, error) {
	bodies, keys, err := svcInputs()
	if err != nil {
		return nil, err
	}
	seq := svcPlan(cfg.seed, len(bodies))
	var srv *svcServer
	setups, err := timeSetups(quickSetupReps, func() {
		if err := srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping a set-up server:", err)
		}
	}, func() error {
		var err error
		srv, err = startServer()
		return err
	})
	if err != nil {
		return nil, err
	}
	results, elapsed := srv.drive(cfg.measure(), seq, bodies, keys, refs, nil)
	var snap metricsSnapshot
	err = srv.get("/metrics", &snap)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	rep := newReport()
	var miss, hit []float64
	completed, joins := 0, 0
	for _, r := range results {
		rep.check(r.err)
		if r.err != nil {
			continue
		}
		completed++
		switch r.source {
		case "miss":
			miss = append(miss, ms(r.lat))
		case "hit":
			hit = append(hit, ms(r.lat))
		default:
			joins++
		}
	}
	rep.set("setup_s", medianDur(setups).Seconds(), "s")
	rep.set("maccess_per_s", float64(snap.Counters["sim_l1_accesses"])/elapsed.Seconds()/1e6, "Maccess/s")
	rep.set("cell_p50_ms", snap.Histograms["sim_run_seconds"].P50*1000, "ms")
	rep.set("jobs_per_s", float64(completed)/elapsed.Seconds(), "1/s")
	rep.set("miss_p50_ms", median(miss), "ms")
	rep.set("miss_p95_ms", quantile(miss, 0.95), "ms")
	rep.set("hit_p50_ms", median(hit), "ms")
	rep.note("svc-mixed submissions=%d misses=%d hits=%d joins=%d cells=%d measured=%.3fs setups=%v",
		len(results), len(miss), len(hit), joins, snap.Histograms["sim_run_seconds"].Count, elapsed.Seconds(), setups)
	rep.note("latency clusters: hits %.3f..%.3f ms, misses %.3f..%.3f ms (p5..p95)",
		quantile(hit, 0.05), quantile(hit, 0.95), quantile(miss, 0.05), quantile(miss, 0.95))
	return rep, nil
}

// traceStages are the job-trace spans serve records per submission.
var traceStages = map[string]string{
	"stage:decode":       "serve.decode_ms",
	"stage:cache_lookup": "serve.cache_lookup_ms",
	"queue_wait":         "serve.queue_wait_ms",
	"coalesce":           "serve.coalesce_ms",
	"run":                "serve.run_ms",
	"store":              "serve.store_ms",
}

// jobTraces collects the traced run's job traces.
type jobTraces struct {
	mu       sync.Mutex
	stage    map[string][]float64 // metric name → per-job span durations, ms
	attempts int
	checked  int
	replaced int
	misses   []string // keys of checked miss jobs, in answer order
	errs     []error
}

// add checks one answered job's trace with serve.CheckTrace and records
// its stage spans. A trace whose root source disagrees with the answer
// was replaced by a later submission of the same spec and is skipped.
func (j *jobTraces) add(r svcResult, spans []obs.SpanRecord, fetchErr error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if fetchErr != nil {
		j.errs = append(j.errs, fmt.Errorf("svc-mixed %s: trace: %w", r.key, fetchErr))
		return
	}
	for _, sp := range spans {
		if sp.Parent == "" && sp.Attrs["source"] != r.source {
			j.replaced++
			return
		}
	}
	if err := serve.CheckTrace(spans); err != nil {
		j.errs = append(j.errs, fmt.Errorf("svc-mixed %s: %w", r.key, err))
		return
	}
	j.checked++
	for _, sp := range spans {
		if name, ok := traceStages[sp.Name]; ok {
			j.stage[name] = append(j.stage[name], ms(sp.Duration))
		}
		if sp.Name == "attempt" {
			j.attempts++
		}
	}
	if r.source == "miss" {
		j.misses = append(j.misses, r.key)
	}
}

func traceSvcMixed(cfg config, refs refs) (*report, error) {
	bodies, keys, err := svcInputs()
	if err != nil {
		return nil, err
	}
	seq := svcPlan(cfg.seed, len(bodies))
	var agg layerAgg
	pool := svcPool()
	t0 := time.Now()
	for _, s := range pool {
		if _, err := s.Resolve(); err != nil {
			return nil, err
		}
	}
	agg.resolve, agg.resolves = time.Since(t0), len(pool)

	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	jt := &jobTraces{stage: map[string][]float64{}}
	results, _ := srv.drive(cfg.measure(), seq, bodies, keys, refs, func(r svcResult) {
		if r.err != nil {
			return
		}
		var body struct {
			Spans []obs.SpanRecord `json:"spans"`
		}
		err := srv.get("/v1/traces/"+r.addr, &body)
		jt.add(r, body.Spans, err)
	})
	var snap metricsSnapshot
	err = srv.get("/metrics", &snap)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	rep := newReport()
	for _, r := range results {
		rep.check(r.err)
	}
	for _, err := range jt.errs {
		rep.fail(err)
	}

	// Attribute the run stage: rebuild distinct miss specs' simulations
	// through the traced layer loop.
	seen := map[string]bool{}
	byKey := map[string]exp.Spec{}
	for _, s := range pool {
		byKey[svcKey(s)] = s
	}
	var stream []mem.Access
	var streamLLC cache.Config
	for _, key := range jt.misses {
		if seen[key] || len(seen) == svcTracedCells {
			continue
		}
		seen[key] = true
		s := byKey[key]
		c, err := resolveCell(s.Workloads[0], "", s.Policy, s.Scale, s.LLC)
		if err != nil {
			return nil, err
		}
		var capture *[]mem.Access
		if stream == nil {
			capture, streamLLC = &stream, c.res.LLCFor(1)
		}
		r := c.runSingle()
		rep.check(agg.single(c, "svc-mixed", svcStats(r.IPC, r.Cycles, r.Instructions, r.LLC), capture))
	}
	if agg.extraNs, err = dbrbExtra(stream, streamLLC, 1, 9); err != nil {
		return nil, err
	}
	agg.report(rep)
	for _, metric := range traceStages {
		rep.set(metric, mean(jt.stage[metric]), "ms")
	}
	rep.set("serve.cache_hit_ratio", ratio(snap.Counters[serve.CtrCacheHits], snap.Counters[serve.CtrSubmits]), "ratio")
	rep.set("serve.singleflight_shared", float64(snap.Counters[serve.CtrSingleflightShared]), "count")
	rep.set("serve.queue_rejects", float64(snap.Counters[serve.CtrQueueRejects]), "count")
	rep.set("runner.attempts", float64(jt.attempts), "count")
	rep.set("runner.retries", float64(snap.Counters[obs.CtrJobRetries]), "count")
	rep.note("svc-mixed traced: %d traces checked, %d replaced by a later submission, %d run stages rebuilt",
		jt.checked, jt.replaced, len(seen))
	return rep, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
