// Package server exposes the PROTEST analysis pipeline as a
// long-running HTTP/JSON service on top of the lock-free Session core.
//
// The server keeps one concurrent Session per circuit identity:
// requests naming the same registered benchmark — or carrying
// structurally equal netlists — share one Session and therefore one
// set of compiled artifacts (the artifact store interns circuits by
// structural fingerprint), so only the first request for a design pays
// the compilation cost.  The Sessions live in an artifact.Cache of
// Config.MaxSessions entries: concurrent first requests for a circuit
// share one Open, and the least recently used Session is dropped
// beyond the bound.  The cache is the server's own, not the artifact
// store's, because its Sessions carry this server's options.
//
// Admission control bounds the work the process accepts: MaxInFlight
// analyses execute concurrently, MaxQueue more wait for a slot, and
// everything beyond that is answered 429 so overload degrades into
// fast rejections instead of latency collapse.
//
// On top of admission the service deduplicates the work itself
// (internal/coalesce): identical concurrent pipeline requests — same
// circuit identity, same canonicalized spec, sim_width included — join
// one in-flight computation and share its Report (each joiner keeps
// its own progress stream), and identical concurrent /v1/analyze
// requests — same circuit identity, same input tuple bits — join one
// analysis pass.  A computation holds one admission slot however many
// requests joined it, and is canceled only when every joiner has
// disconnected.
// Long computations can be detached from the HTTP connection entirely
// through the asynchronous job API (internal/jobs): POST /v1/jobs
// returns an id immediately, a bounded worker pool executes the
// pipeline, and clients poll or stream resumable SSE events.
//
// A request says what to compute; the server's Config says how.  Every
// Session runs the FFR engine on Config.Workers goroutines, and a
// request body holding a field its endpoint does not know — a
// misspelling, or a field such as "workers" that no request carries —
// answers 400 with the field named, before any work starts.
//
// Endpoints:
//
//	POST   /v1/pipeline         run the full paper pipeline, returning a
//	                            Report; with Accept: text/event-stream
//	                            (or ?stream=sse) phase progress and the
//	                            final report arrive as server-sent events
//	POST   /v1/analyze          one analysis pass: per-fault detection
//	                            probabilities for an input tuple
//	POST   /v1/validate         three-oracle self-validation: analytic
//	                            estimator vs BDD-exact vs ProbTest-sized
//	                            Monte-Carlo; returns the full report,
//	                            cumulative outcomes appear in /healthz
//	POST   /v1/jobs             submit a pipeline request as an async
//	                            job; returns the job id immediately
//	GET    /v1/jobs/{id}        poll job state, progress and result
//	GET    /v1/jobs/{id}/events stream the job's event log as SSE;
//	                            Last-Event-ID resumes after a dropped
//	                            connection
//	DELETE /v1/jobs/{id}        cancel the job
//	GET    /v1/circuits         registered benchmark circuit names
//	GET    /healthz             liveness, admission gauges, coalescing
//	                            and job metrics, artifact-store stats
//
// Every synchronous handler runs under the request context, which
// net/http cancels when the client disconnects — an abandoned request
// detaches from its computation, which is aborted once no other
// request (and no job) still waits for it.  Graceful shutdown is the
// caller's http.Server Shutdown plus Server.Close, which drains the
// job subsystem.
package server

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"protest"
	"protest/internal/artifact"
	"protest/internal/coalesce"
	"protest/internal/jobs"
	"protest/internal/shard"
)

// Config tunes a Server.  The zero value serves with the documented
// defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing analyses
	// (default 2×GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot beyond
	// MaxInFlight (default 4×MaxInFlight); requests beyond that are
	// answered 429 immediately.
	MaxQueue int
	// MaxSessions bounds the distinct circuits holding a live Session,
	// Sessions being opened included (default 64); least-recently-used
	// Sessions are dropped, their compiled artifacts staying in the
	// artifact store.
	MaxSessions int
	// MaxBodyBytes bounds request bodies, netlists included
	// (default 8 MiB).
	MaxBodyBytes int64
	// Workers configures every Session the server opens (WithWorkers):
	// 0 analyzes serially per request, negative selects GOMAXPROCS.  It
	// is the deployment's parallelism: requests cannot change it.
	Workers int
	// Seed seeds every Session's deterministic pattern streams
	// (WithSeed); 0 selects the Session default of 1, so equal
	// requests return bit-identical reports across server restarts.
	Seed uint64
	// JobWorkers is the size of the worker pool executing async jobs
	// (default 2).
	JobWorkers int
	// JobStoreCap bounds the jobs the store holds, queued and finished
	// alike (default 256); when it is full of unfinished jobs,
	// POST /v1/jobs answers 429.
	JobStoreCap int
	// JobTTL is how long a finished job (and its Report) stays
	// pollable before expiring (default 15 minutes).
	JobTTL time.Duration
	// Worker additionally serves POST /v1/shard, the endpoint a
	// coordinator's shard pool dispatches fault-simulation shards to
	// (`protest serve -worker`).  Shard requests pass the same
	// admission control as every other analysis endpoint.
	Worker bool
	// WorkerAddrs, when non-empty, shards every Session's fault
	// simulation across those worker processes through a failure-aware
	// pool (retries, ejection, local fallback); results stay
	// bit-identical to local execution, and /healthz reports the pool
	// under "shard" plus a top-level "degraded" flag.
	WorkerAddrs []string
	// SSEKeepAlive is the idle interval after which SSE streams emit a
	// `: ping` comment so proxies and clients keep half-idle
	// connections alive (default 15s; negative disables).
	SSEKeepAlive time.Duration

	// jobClock, when non-nil, is the job store's deterministic clock
	// (tests drive TTL expiry through it + Store.Sweep).
	jobClock func() time.Time
}

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobStoreCap <= 0 {
		c.JobStoreCap = 256
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.SSEKeepAlive == 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
}

// Server is the HTTP analysis service.  Create one with New, mount
// Handler on an http.Server, and release background resources (job
// workers, the shard pool) with Close; all methods are safe for
// concurrent use.
type Server struct {
	cfg   Config
	adm   *admission
	mux   *http.ServeMux
	start time.Time

	// sessions holds one Session per canonical circuit, opened with
	// opts; at most Config.MaxSessions, Sessions being opened
	// included, in LRU order.  Evicting one is cheap: requests running
	// on it keep it alive, and its compiled artifacts stay in the
	// artifact store, so a returning circuit re-opens in microseconds.
	sessions *artifact.Cache[*protest.Circuit, *protest.Session]
	opts     []protest.Option

	// pipelines coalesces identical concurrent pipeline computations
	// (sync requests and async jobs share one keyspace), analyses
	// identical concurrent /v1/analyze passes, and jobStore owns the
	// async jobs.
	pipelines *coalesce.Group[pipelineKey, *protest.Report, progressUpdate]
	analyses  *coalesce.Group[analyzeKey, *protest.Analysis, struct{}]
	jobStore  *jobs.Store

	// pool, when non-nil, is the shard pool every Session distributes
	// fault simulation through (Config.WorkerAddrs); shardExec, when
	// non-nil, serves this process's side of POST /v1/shard
	// (Config.Worker).
	pool      *shard.Pool
	shardExec *shard.Executor

	// benchCache maps registered benchmark names to their canonical
	// interned circuits, so warm named requests skip the per-request
	// rebuild + structural fingerprint walk of the registry
	// constructor.
	benchCache sync.Map // string -> *protest.Circuit

	requests  atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	canceled  atomic.Int64
	failed    atomic.Int64

	// panics counts handler and job panics converted to errors instead
	// of crashing the process.
	panics atomic.Int64

	// analyzePasses counts evaluator passes actually executed for
	// /v1/analyze traffic; identical concurrent requests advance it
	// once.
	analyzePasses atomic.Int64

	// Cumulative /v1/validate outcomes: runs executed, runs that
	// passed, runs with at least one flagged check, total flagged
	// checks, and total recorded skips.  A flagged run is a 200 — the
	// report is the product — so these counters are how a monitor sees
	// the oracles disagreeing.
	validateRuns        atomic.Int64
	validatePassed      atomic.Int64
	validateFlaggedRuns atomic.Int64
	validateFlags       atomic.Int64
	validateSkips       atomic.Int64

	// svcNanos is an exponentially weighted moving average of recent
	// computation service times, feeding the Retry-After estimate.
	svcNanos atomic.Int64

	closeOnce sync.Once

	// testHookAdmitted, when non-nil, runs after a pipeline computation
	// or an analysis pass is admitted and has resolved its Session,
	// immediately before the run; tests use it to hold execution slots
	// busy deterministically.
	testHookAdmitted func()
	// testHookJobRun, when non-nil, runs at the start of every async
	// job's work function; tests use it to park job workers.
	testHookJobRun func()
}

// New creates a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg.fill()
	opts := []protest.Option{
		protest.WithSeed(cfg.Seed),
		protest.WithWorkers(cfg.Workers),
	}
	var pool *shard.Pool
	if len(cfg.WorkerAddrs) > 0 {
		pool = shard.NewPool(shard.Config{Workers: cfg.WorkerAddrs, Seed: cfg.Seed})
		opts = append(opts, protest.WithShardPool(pool))
	}
	s := &Server{
		cfg:       cfg,
		adm:       newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		sessions:  artifact.NewCache[*protest.Circuit, *protest.Session](cfg.MaxSessions),
		opts:      opts,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		pipelines: coalesce.NewGroup[pipelineKey, *protest.Report, progressUpdate](),
		analyses:  coalesce.NewGroup[analyzeKey, *protest.Analysis, struct{}](),
		pool:      pool,
	}
	s.jobStore = jobs.NewStore(jobs.Config{
		Workers: cfg.JobWorkers,
		Cap:     cfg.JobStoreCap,
		TTL:     cfg.JobTTL,
		Now:     cfg.jobClock,
	})
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/circuits", s.handleCircuits)
	s.mux.HandleFunc("POST /v1/pipeline", s.handlePipeline)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/validate", s.handleValidate)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	if cfg.Worker {
		s.shardExec = shard.NewExecutor()
		s.mux.HandleFunc("POST /v1/shard", s.handleShard)
	}
	return s
}

// Handler returns the server's HTTP handler.  Every route runs under
// the panic-recovery middleware: a panicking handler answers 500 (and
// increments the healthz panic counter) instead of killing the
// connection — and, since ServeHTTP's recovery only covers its own
// goroutine, the pipeline and job paths additionally recover inside
// their computation goroutines.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

// Close releases the server's background resources: it cancels every
// unfinished job, stops the job workers, and closes the shard pool.
// Call it after http.Server.Shutdown has drained the synchronous
// traffic.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.jobStore.Close()
		if s.pool != nil {
			s.pool.Close()
		}
	})
}

// Stats is a snapshot of the server's request counters and gauges.
type Stats struct {
	// Requests counts every request reaching an analysis endpoint.
	Requests int64 `json:"requests"`
	// Completed counts analyses that returned a result.
	Completed int64 `json:"completed"`
	// Rejected counts 429 admission rejections.
	Rejected int64 `json:"rejected"`
	// Canceled counts analyses aborted by client disconnect.
	Canceled int64 `json:"canceled"`
	// Failed counts analyses that returned an error.
	Failed int64 `json:"failed"`
	// InFlight and Queued are the admission gauges right now.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Sessions is the number of distinct circuits with a live Session.
	Sessions int `json:"sessions"`
	// Coalesce reports pipeline singleflight effectiveness: Leads are
	// computations actually run, Joins are requests that shared one.
	Coalesce coalesce.GroupStats `json:"coalesce"`
	// Batch reports the /v1/analyze singleflight group (see
	// BatchStats).
	Batch BatchStats `json:"batch"`
	// AnalyzePasses counts evaluator passes actually executed for
	// /v1/analyze; it grows once per pass, not once per request.
	AnalyzePasses int64 `json:"analyze_passes"`
	// Jobs is the async job store snapshot: occupancy, per-state
	// gauges, eviction/expiry counters.
	Jobs jobs.Stats `json:"jobs"`
	// Validate aggregates /v1/validate outcomes since the server
	// started.
	Validate ValidateStats `json:"validate"`
	// RetryAfterSeconds is the current 429 Retry-After estimate,
	// derived from queue depth and recent service times.
	RetryAfterSeconds int `json:"retry_after_seconds"`
	// Panics counts handler and job panics recovered into error
	// responses instead of crashing the process.
	Panics int64 `json:"panics"`
}

// BatchStats reports the /v1/analyze singleflight group under the
// names of the micro-batcher it replaced: the benchmark harness still
// decodes "flushes" and "requests", and the names go when the harness
// retires its batcher metrics.
type BatchStats struct {
	// Flushes counts analysis passes led, one per distinct concurrent
	// burst of identical requests.
	Flushes int64 `json:"flushes"`
	// Requests counts the requests that led or joined a pass.
	Requests int64 `json:"requests"`
	// MeanSize is Requests/Flushes, 0 before the first pass.
	MeanSize float64 `json:"mean_size"`
}

// ValidateStats aggregates the outcomes of every /v1/validate run the
// server has executed: a monitor watching FlaggedRuns (or Flags) grow
// is watching the three oracles disagree somewhere.
type ValidateStats struct {
	// Runs counts completed validation runs; Passed those with zero
	// flagged checks, FlaggedRuns those with at least one.
	Runs        int64 `json:"runs"`
	Passed      int64 `json:"passed"`
	FlaggedRuns int64 `json:"flagged_runs"`
	// Flags is the total number of flagged checks across all runs and
	// Skips the total number of recorded skips (BDD budget, truncated
	// coverage guarantee).
	Flags int64 `json:"flags"`
	Skips int64 `json:"skips"`
}

// Stats returns a snapshot of the server's counters.  Counters are
// read individually, so a snapshot under concurrent traffic is
// approximate.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:      s.requests.Load(),
		Completed:     s.completed.Load(),
		Rejected:      s.rejected.Load(),
		Canceled:      s.canceled.Load(),
		Failed:        s.failed.Load(),
		InFlight:      s.adm.inFlight(),
		Queued:        s.adm.waiting(),
		Sessions:      s.sessions.Len(),
		Coalesce:      s.pipelines.Stats(),
		Batch:         batchStats(s.analyses.Stats()),
		AnalyzePasses: s.analyzePasses.Load(),
		Validate: ValidateStats{
			Runs:        s.validateRuns.Load(),
			Passed:      s.validatePassed.Load(),
			FlaggedRuns: s.validateFlaggedRuns.Load(),
			Flags:       s.validateFlags.Load(),
			Skips:       s.validateSkips.Load(),
		},
		Jobs:              s.jobStore.Stats(),
		RetryAfterSeconds: s.retryAfterHint(),
		Panics:            s.panics.Load(),
	}
}

func batchStats(g coalesce.GroupStats) BatchStats {
	st := BatchStats{Flushes: g.Leads, Requests: g.Leads + g.Joins}
	if st.Flushes > 0 {
		st.MeanSize = float64(st.Requests) / float64(st.Flushes)
	}
	return st
}

// observeService folds one computation duration into the service-time
// EWMA (α = 1/4) behind the Retry-After estimate.
func (s *Server) observeService(d time.Duration) {
	for {
		old := s.svcNanos.Load()
		next := d.Nanoseconds()
		if old != 0 {
			next = old + (next-old)/4
		}
		if s.svcNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterHint estimates how many seconds a rejected client should
// wait before a slot plausibly frees up: the work ahead of it (queued
// plus executing) times the mean service time, spread over the
// execution parallelism.  Before any completion it falls back to 1.
func (s *Server) retryAfterHint() int {
	mean := time.Duration(s.svcNanos.Load())
	if mean <= 0 {
		return 1
	}
	ahead := s.adm.waiting() + s.adm.inFlight()
	est := time.Duration(ahead) * mean / time.Duration(s.cfg.MaxInFlight)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Stats         Stats          `json:"stats"`
	Store         artifact.Stats `json:"store"`
	// Degraded is true while a configured shard pool has no healthy
	// worker — runs still succeed, executed locally in-process.
	Degraded bool `json:"degraded,omitempty"`
	// Shard is the shard pool's counter snapshot, present only when the
	// server was configured with worker addresses.
	Shard *shard.Stats `json:"shard,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Stats:         s.Stats(),
		Store:         artifact.Default.Stats(),
	}
	if s.pool != nil {
		st := s.pool.Stats()
		resp.Shard = &st
		resp.Degraded = st.Degraded
	}
	s.respond(w, http.StatusOK, resp)
}

// circuitsResponse is the body of GET /v1/circuits.
type circuitsResponse struct {
	Circuits []string `json:"circuits"`
}

func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	s.respond(w, http.StatusOK, circuitsResponse{Circuits: protest.BenchmarkNames()})
}
