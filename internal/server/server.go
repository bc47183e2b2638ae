// Package server implements trafficd, the streaming VBR-traffic service:
// named generation sessions streaming bytes-per-frame over HTTP (NDJSON or
// the length-prefixed x-vbrsim-frames records), an async job queue for
// fitting and overflow estimation, and Prometheus-style observability.
//
// The HTTP surface:
//
//	GET    /healthz                      liveness (503 while draining)
//	GET    /metrics                      Prometheus text format
//	POST   /v1/streams                   create a session from a modelspec
//	POST   /v1/trunks                    create a superposition session from a trunk spec
//	POST   /v1/streams/step              advance many sessions in one batch
//	GET    /v1/streams                   list sessions
//	GET    /v1/streams/{id}              session state
//	DELETE /v1/streams/{id}              close a session
//	GET    /v1/streams/{id}/frames?n=N   stream N frames (&from=K to seek,
//	                                     &format=frames|ndjson)
//	GET    /v1/sessions/{id}/stats       live statistical-monitor snapshot
//	GET    /v1/status                    fleet rollup (sessions, drift)
//	POST   /v1/jobs                      submit fit / qsim-mc / qsim-is
//	GET    /v1/jobs                      list jobs
//	GET    /v1/jobs/{id}                 poll one job
//
// Sessions are deterministic: a session's frames are a pure function of its
// spec and seed, so a client that reconnects can replay any range with
// from=, and the same spec and seed generated offline (modelspec.Frames or
// cmd/synth with the fast backend) yield bit-identical values. Trunk
// sessions extend the same contract to superpositions: every component
// seed derives from the trunk seed (internal/trunk), so the aggregate too
// is reproducible offline from the create response alone.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vbrsim/internal/obs"
	"vbrsim/internal/par"
	"vbrsim/internal/statmon"
)

// Options configures the service.
type Options struct {
	// MaxSessions caps concurrently open streaming sessions; creations
	// beyond it get 429. Default 64.
	MaxSessions int
	// Shards is the session-registry shard count, rounded up to a power of
	// two. Each shard has its own lock and map, so concurrent requests for
	// different sessions contend only 1/Shards of the time. Default 16.
	Shards int
	// MaxCost is the admission-control budget in session cost units (see
	// modelspec.Spec.Cost). 0 derives a budget from MaxSessions generous
	// enough that cost never binds before the session cap for typical
	// single-source fleets; set it explicitly to make cost-aware shedding
	// the primary limit (trunk-heavy workloads).
	MaxCost float64
	// IdleTimeout evicts sessions untouched for this long (LRU-style: a
	// frames/step/seek/info request refreshes the clock). 0 disables
	// eviction.
	IdleTimeout time.Duration
	// EvictInterval is the evictor sweep period; 0 derives IdleTimeout/4
	// (minimum 1s). Only meaningful with IdleTimeout > 0.
	EvictInterval time.Duration
	// JobWorkers is the job worker-pool size. Default GOMAXPROCS, capped
	// at 4 so jobs (which parallelize internally) cannot starve streams.
	JobWorkers int
	// StepWorkers is the fan-out width of batched session stepping
	// (POST /v1/streams/step). Default GOMAXPROCS. Sessions are assigned to
	// workers in sticky contiguous chunks of the request's ID list, so a
	// driver that steps the same fleet repeatedly keeps each session's
	// arena warm in one worker's cache; the value is primarily a test knob
	// (results are bit-identical for any width).
	StepWorkers int
	// JobQueueDepth bounds queued-but-unstarted jobs; submissions beyond
	// it get 429. Default 64.
	JobQueueDepth int
	// Seed is the base for per-session seed derivation when a spec does
	// not pin one. Default 1.
	Seed uint64
	// Registry receives the server's metrics; nil creates a private
	// registry (keeps tests isolated). trafficd passes obs.Default so the
	// daemon and in-process CLI instrumentation share one registry.
	Registry *obs.Registry
	// StatmonSampleEvery is the statistical self-monitor's chunk sampling
	// rate: every k-th served chunk per session is folded into its monitor.
	// 0 selects the default 32 (tap ~4% of block synthesis time, gated at
	// 5% by statmon's TestTapShareOfFill); 1 observes all; < 0 disables.
	StatmonSampleEvery int
	// StatmonDriftThreshold flags a monitored session as drifting when its
	// drift score reaches it. 0 selects statmon's default 1.0.
	StatmonDriftThreshold float64
	// AccessLog, when set, receives one NDJSON line per HTTP request (plus
	// any pipeline spans opened under request contexts). Lines are written
	// through the tracer's lock, so any io.Writer works.
	AccessLog io.Writer
}

// maxBodyBytes caps request bodies: specs can embed empirical samples, fit
// jobs whole traces.
const maxBodyBytes = 64 << 20

// defaultCostPerSession sizes the derived admission budget: roughly one
// paper-model truncated stream per session slot, with headroom.
const defaultCostPerSession = 16

func (o *Options) fill() {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.MaxCost <= 0 {
		o.MaxCost = defaultCostPerSession * float64(o.MaxSessions)
	}
	if o.IdleTimeout > 0 && o.EvictInterval <= 0 {
		o.EvictInterval = o.IdleTimeout / 4
		if o.EvictInterval < time.Second {
			o.EvictInterval = time.Second
		}
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = runtime.GOMAXPROCS(0)
		if o.JobWorkers > 4 {
			o.JobWorkers = 4
		}
	}
	if o.StepWorkers <= 0 {
		o.StepWorkers = runtime.GOMAXPROCS(0)
	}
	if o.JobQueueDepth <= 0 {
		o.JobQueueDepth = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.StatmonSampleEvery == 0 {
		o.StatmonSampleEvery = 32
	}
}

var (
	errDraining   = errors.New("server is draining")
	errSessionCap = errors.New("session limit reached")
	errQueueFull  = errors.New("job queue full")
	errNoSession  = errors.New("no such session")
)

// Server is the trafficd service. It implements http.Handler.
type Server struct {
	opt     Options
	mux     *http.ServeMux
	metrics *metrics

	baseCtx    context.Context
	cancelBase context.CancelFunc

	reg         *sessionRegistry
	adm         *admission
	nextSession atomic.Uint64
	evictorDone chan struct{} // nil when eviction is disabled

	// Per-shard children of the shard metric vecs, indexed by shard, so
	// a lookup or registry change touches no label vec.
	shardRequests []*obs.Counter
	shardSessions []*obs.Gauge

	seedOrdinal atomic.Uint64
	jobs        *jobPool

	started time.Time
	access  *obs.Tracer   // nil unless Options.AccessLog is set
	reqSeq  atomic.Uint64 // request-id sequence

	monSet *statmon.Settings // shared by every session's monitor; nil: statmon off

	rollMu sync.Mutex // statmon fleet-rollup cache (see statmonRollup)
	rollAt time.Time
	roll   statmonFleet
}

// New builds a Server ready to serve.
func New(opt Options) *Server {
	opt.fill()
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opt:     opt,
		mux:     http.NewServeMux(),
		metrics: newMetrics(reg),
		adm:     newAdmission(opt.MaxCost, opt.MaxSessions),
		started: time.Now(),
		monSet:  monitorSettings(&opt),
	}
	if opt.AccessLog != nil {
		s.access = obs.NewStreamTracer(opt.AccessLog)
	}
	s.reg = newSessionRegistry(opt.Shards, func(shard, active int) {
		s.shardSessions[shard].Set(float64(active))
	})
	// Resolve every shard's children once. This also pre-touches them, so
	// the exposition shows the full topology (all-zero shards included)
	// from the first scrape.
	for i := range s.reg.numShards() {
		label := strconv.Itoa(i)
		s.shardSessions = append(s.shardSessions, s.metrics.shardSessions.With(label))
		s.shardRequests = append(s.shardRequests, s.metrics.shardRequests.With(label))
	}
	s.registerStatmonGauges(reg)
	reg.GaugeFunc("vbrsim_server_admission_cost_used",
		"Admission-control cost units currently reserved by open sessions.",
		s.adm.usedCost)
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.jobs = newJobPool(s, opt.JobWorkers, opt.JobQueueDepth)
	if opt.IdleTimeout > 0 {
		s.evictorDone = make(chan struct{})
		go s.runEvictor()
	}

	// Worker-pool runs (estimator fan-outs, DH batches) feed the par
	// series. The observer is process-wide; with several Servers in one
	// process the most recent wins, which is fine for the daemon (one
	// Server) and harmless in tests.
	par.SetObserver(s.metrics.observePar)

	// Every route goes through the RED middleware under a stable endpoint
	// label (see middleware.go). The metrics scrape itself is instrumented
	// too: scrape latency regressions should be visible in the scrape.
	s.route("GET /healthz", "healthz", http.HandlerFunc(s.handleHealthz))
	s.route("GET /metrics", "metrics", reg.Handler())
	s.route("POST /v1/streams", "stream_create", http.HandlerFunc(s.handleStreamCreate))
	s.route("POST /v1/trunks", "trunk_create", http.HandlerFunc(s.handleTrunkCreate))
	s.route("POST /v1/streams/step", "step", http.HandlerFunc(s.handleStreamStep))
	s.route("GET /v1/streams", "stream_list", http.HandlerFunc(s.handleStreamList))
	s.route("GET /v1/streams/{id}", "stream_get", http.HandlerFunc(s.handleStreamGet))
	s.route("DELETE /v1/streams/{id}", "stream_delete", http.HandlerFunc(s.handleStreamDelete))
	s.route("GET /v1/streams/{id}/frames", "frames", http.HandlerFunc(s.handleStreamFrames))
	s.route("GET /v1/sessions/{id}/stats", "session_stats", http.HandlerFunc(s.handleSessionStats))
	s.route("GET /v1/status", "status", http.HandlerFunc(s.handleStatus))
	s.route("POST /v1/jobs", "job_create", http.HandlerFunc(s.handleJobCreate))
	s.route("GET /v1/jobs", "job_list", http.HandlerFunc(s.handleJobList))
	s.route("GET /v1/jobs/{id}", "job_get", http.HandlerFunc(s.handleJobGet))
	return s
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry returns the metrics registry this server reports through.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.adm.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

// BeginDrain stops admitting new sessions and jobs while letting in-flight
// streams and queued jobs finish; /healthz flips to 503 so load balancers
// stop routing here. Call on SIGTERM, then shut the http.Server down
// gracefully, then Close.
func (s *Server) BeginDrain() {
	s.adm.beginDrain()
	s.jobs.drain()
}

// Close cancels running jobs, stops the evictor, and waits for the worker
// pool to exit. Sessions hold no goroutines or external resources, so
// dropping the Server after Close releases everything.
func (s *Server) Close() {
	s.BeginDrain()
	s.cancelBase()
	if s.evictorDone != nil {
		<-s.evictorDone
	}
	s.jobs.wg.Wait()
}

// runEvictor sweeps the registry every EvictInterval, closing sessions
// idle past IdleTimeout and returning their admission cost.
func (s *Server) runEvictor() {
	defer close(s.evictorDone)
	t := time.NewTicker(s.opt.EvictInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.evictIdleOnce()
		}
	}
}

// evictIdleOnce runs one eviction sweep (the evictor tick; tests call it
// directly for a deterministic sweep).
func (s *Server) evictIdleOnce() int {
	begin := time.Now()
	cutoff := begin.Add(-s.opt.IdleTimeout)
	n := s.reg.evictIdle(cutoff, func(ss *session) {
		s.retire(ss)
		s.metrics.evictions.Inc()
	})
	s.metrics.sweepSeconds.Observe(time.Since(begin).Seconds())
	s.metrics.sessionsSwept.Add(float64(n))
	return n
}

// ---------------------------------------------------------------------------
// Response helpers

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
