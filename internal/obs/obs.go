// Package obs is the evaluation harness's observability layer: an
// allocation-conscious metrics registry (counters, gauges, timing
// histograms with quantiles), lightweight spans for per-section wall
// time, and a run-manifest writer that records what configuration
// produced a set of results (see manifest.go).
//
// The package depends only on the standard library and the local
// stats helpers. Every method is safe for concurrent use and nil-safe:
// calls on a nil *Registry (and the nil instruments it hands out) are
// no-ops, so instrumented code needs no "is observability on?" guards
// and pays nothing but a nil check when it is off.
//
// Determinism contract: counters count discrete simulation events with
// uint64 addition, which is commutative, so their final values are
// independent of worker scheduling and GOMAXPROCS. Gauges, histograms
// and spans record wall-clock time and are inherently nondeterministic;
// the manifest keeps the two classes in separate sections so the
// deterministic one can be byte-compared across runs.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"sdbp/internal/stats"
)

// Metric names the runner reports under (see package runner). They are
// defined here so the manifest assembly and the tests that reconcile
// runner behavior against the registry share one vocabulary.
const (
	// CtrJobsSubmitted counts jobs handed to runner.Run.
	CtrJobsSubmitted = "runner_jobs_submitted"
	// CtrJobsSucceeded counts jobs that executed and returned a value.
	CtrJobsSucceeded = "runner_jobs_succeeded"
	// CtrJobsFailed counts jobs that settled with an error (including
	// drained jobs that never ran because the context was cancelled).
	CtrJobsFailed = "runner_jobs_failed"
	// CtrJobsFromCheckpoint counts results restored from the journal
	// instead of being executed.
	CtrJobsFromCheckpoint = "runner_jobs_from_checkpoint"
	// CtrJobsDrained counts the subset of failed jobs that were drained
	// without executing.
	CtrJobsDrained = "runner_jobs_drained"
	// CtrJobRetries names the retry counter of a runner that retried
	// failed jobs. The runner runs each job once, so it stays 0; the
	// name remains because the repository benchmark reads it.
	CtrJobRetries = "runner_job_retries"
	// CtrJobTimeouts counts jobs abandoned at the per-job timeout.
	CtrJobTimeouts = "runner_job_timeouts"
	// CtrJobPanics counts jobs that settled via a recovered panic.
	CtrJobPanics = "runner_job_panics"
	// HistJobSeconds is the per-executed-job wall-time histogram.
	HistJobSeconds = "runner_job_seconds"
)

// SimPrefix marks counters that aggregate simulator state (cache.Stats
// sums, instructions retired, predictor verdicts). The manifest's
// deterministic section collects every counter with this prefix.
const SimPrefix = "sim_"

// Observable is implemented by job result types that can fold their
// aggregate simulator counters into a registry. The runner observes
// every live (non-checkpoint) successful result that implements it, so
// campaign-level counters accumulate at experiment boundaries instead
// of on the per-access hot path.
type Observable interface {
	ObserveInto(*Registry)
}

// Registry holds a run's metrics. The zero value is not usable; create
// one with NewRegistry. A nil *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanRecord
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterValue returns the named counter's current value without
// creating it (0 when absent or on a nil registry).
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	return c.Value()
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Raise lifts the counter to v when it reads less: the way to mirror a
// monotonic count kept elsewhere, read at scrape time. No-op on nil.
func (c *Counter) Raise(v uint64) {
	if c == nil {
		return
	}
	for old := c.v.Load(); old < v && !c.v.CompareAndSwap(old, v); old = c.v.Load() {
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histSampleCap bounds a histogram's retained samples: beyond it the
// count, sum and extrema stay exact but quantiles are computed over the
// first histSampleCap observations. Campaigns observe one duration per
// job (a few hundred per run), so the cap exists only as a memory
// guard against pathological callers.
const histSampleCap = 8192

// BucketBounds are the histogram's fixed upper bounds, in seconds,
// chosen to straddle the service's job latencies (sub-millisecond
// cached paths through multi-minute campaigns). The Prometheus
// exposition renders these as cumulative le buckets with an implicit
// +Inf equal to the total count.
var BucketBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 300,
}

// Histogram accumulates float64 observations (timings, in seconds, by
// convention) and reports count, sum, extrema, quantiles and fixed
// cumulative buckets. NaN and ±Inf observations are rejected (counted
// separately) rather than poisoning sum, extrema or quantiles.
type Histogram struct {
	mu       sync.Mutex
	count    uint64
	invalid  uint64
	sum      float64
	min, max float64
	samples  []float64
	buckets  [numBuckets]uint64
}

// numBuckets is len(BucketBounds), fixed so the per-histogram bucket
// array needs no allocation.
const numBuckets = 16

// Observe records one value. NaN and ±Inf are dropped (tallied as
// invalid). No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.invalid++
		h.mu.Unlock()
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	for i, ub := range BucketBounds {
		if v <= ub {
			h.buckets[i]++
			break
		}
	}
	if len(h.samples) < histSampleCap {
		h.samples = append(h.samples, v)
	}
	h.mu.Unlock()
}

// Count returns the number of observations recorded (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile returns the q-quantile (q in [0,1], clamped) of the retained
// samples by linear interpolation between order statistics: 0 for an
// empty histogram, the sample itself for a single observation.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	sorted := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	return quantile(sorted, q)
}

// quantile interpolates over an unsorted copy of samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	if lo == len(samples)-1 {
		return samples[lo]
	}
	frac := pos - float64(lo)
	return samples[lo]*(1-frac) + samples[lo+1]*frac
}

// Bucket is one cumulative histogram bucket: Count observations were
// <= UpperBound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramStats is a histogram's point-in-time summary, as serialized
// into the manifest's timing section.
type HistogramStats struct {
	// Count is the total number of valid observations (exact, even past
	// the sample cap).
	Count uint64 `json:"count"`
	// Invalid counts NaN/±Inf observations that were dropped.
	Invalid uint64 `json:"invalid,omitempty"`
	// Sum is the exact sum of all observations.
	Sum float64 `json:"sum"`
	// Min and Max are exact extrema.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Mean is Sum/Count (0 when empty).
	Mean float64 `json:"mean"`
	// CI95 is the half-width of the mean's 95% confidence interval
	// under a normal approximation, over the retained samples (0 for
	// fewer than two).
	CI95 float64 `json:"ci95"`
	// P50, P90 and P99 are interpolated quantiles over the retained
	// samples.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// Buckets are the cumulative fixed buckets (BucketBounds order);
	// the implicit +Inf bucket equals Count.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// stats summarizes the histogram under its lock.
func (h *Histogram) stats() HistogramStats {
	h.mu.Lock()
	s := HistogramStats{Count: h.count, Invalid: h.invalid, Sum: h.sum, Min: h.min, Max: h.max}
	var cum uint64
	for i, ub := range BucketBounds {
		cum += h.buckets[i]
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: cum})
	}
	sorted := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	_, s.CI95 = stats.MeanCI95(sorted)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.50)
	s.P90 = quantile(sorted, 0.90)
	s.P99 = quantile(sorted, 0.99)
	return s
}

// Snapshot is a consistent copy of every instrument in the registry.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
	Spans      []SpanRecord              `json:"spans"`
}

// Snapshot captures every counter, gauge, histogram and finished span.
// On a nil registry it returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	s.Spans = append(s.Spans, r.spans...)
	r.mu.RUnlock()
	sortSpans(s.Spans)
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.stats()
	}
	return s
}
