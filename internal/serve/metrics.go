package serve

// Metric names the server reports under, alongside the runner_* job
// accounting and sim_* aggregates that internal/runner and
// internal/sim already publish into the same registry. The /metrics
// endpoint serves the whole registry as one obs.Snapshot, so a scrape
// sees the full pipeline: HTTP intake, cache, singleflight, admission,
// job execution and simulated work.
const (
	// CtrHTTPRequests counts every request the handler saw.
	CtrHTTPRequests = "serve_http_requests"
	// CtrSubmits counts well-formed job submissions (after decode and
	// resolve; malformed requests are CtrBadRequests).
	CtrSubmits = "serve_submits"
	// CtrBadRequests counts submissions rejected at decode/resolve.
	CtrBadRequests = "serve_bad_requests"
	// CtrCacheHits counts submissions answered from the result store.
	CtrCacheHits = "serve_cache_hits"
	// CtrCacheMisses counts submissions that had to go to the pipeline.
	CtrCacheMisses = "serve_cache_misses"
	// CtrSingleflightShared counts submissions that joined an
	// in-flight identical job instead of enqueueing their own: N
	// concurrent identical submissions record N-1 here and exactly one
	// simulation.
	CtrSingleflightShared = "serve_singleflight_shared"
	// CtrQueueRejects counts submissions bounced by a full admission
	// queue (HTTP 429).
	CtrQueueRejects = "serve_queue_rejects"
	// CtrShutdownRejects counts submissions refused or abandoned
	// because the server was draining (HTTP 503).
	CtrShutdownRejects = "serve_shutdown_rejects"
	// CtrStoreErrors counts storage-backend failures the server
	// absorbed (degraded cache, request still served).
	CtrStoreErrors = "serve_store_errors"
	// GaugeQueueDepth is the admission queue's depth at scrape time.
	GaugeQueueDepth = "serve_queue_depth"
)
