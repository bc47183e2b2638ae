package server

import (
	"math"

	"vbrsim/internal/hosking"
	"vbrsim/internal/obs"
	"vbrsim/internal/par"
	"vbrsim/internal/streamblock"
	"vbrsim/internal/trunk"
)

// metrics binds the daemon's instruments to an obs.Registry. All metric
// names are documented in DESIGN.md §7/§9; keep the two in sync — the
// exposition test and the ci.sh scrape gate parse the rendered output and
// check every documented name.
type metrics struct {
	reg *obs.Registry

	sessionsActive  *obs.Gauge
	sessionsTotal   *obs.Counter
	trunkSessions   *obs.Gauge
	streamsRejected *obs.Counter
	framesStreamed  *obs.Counter
	streamFrames    *obs.Histogram

	admissionRejects *obs.CounterVec // reason=cap|budget|pressure|drain
	evictions        *obs.Counter
	sweepSeconds     *obs.Histogram
	sessionsSwept    *obs.Counter

	httpRequests *obs.CounterVec   // endpoint, code
	httpErrors   *obs.CounterVec   // endpoint
	httpSeconds  *obs.HistogramVec // endpoint
	httpInFlight *obs.Gauge

	frameEmitSeconds *obs.Histogram
	statmonSampled   *obs.Counter

	jobDuration  *obs.SummaryVec // kind, status=ok|failed
	jobsFailed   *obs.CounterVec // kind
	jobsRejected *obs.CounterVec // kind

	estCompleted *obs.Gauge
	estP         *obs.Gauge
	estStdErr    *obs.Gauge
	estNormVar   *obs.Gauge
	estVarRatio  *obs.Gauge
	estRepsPS    *obs.Gauge

	parRuns  *obs.Counter
	parTasks *obs.Counter
	parBusy  *obs.Counter
	parPeak  *obs.Gauge
	parUtil  *obs.Gauge
}

// newMetrics registers the daemon's instruments on reg and exposes the
// shared plan cache's counters there as well.
func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		reg: reg,
		sessionsActive: reg.Gauge("vbrsim_sessions_active",
			"Streaming sessions currently open."),
		sessionsTotal: reg.Counter("vbrsim_sessions_total",
			"Streaming sessions created since start."),
		trunkSessions: reg.Gauge("vbrsim_trunk_sessions_active",
			"Trunk superposition sessions currently open."),
		streamsRejected: reg.Counter("vbrsim_streams_rejected_total",
			"Stream creations rejected (session cap or drain)."),
		framesStreamed: reg.Counter("vbrsim_frames_streamed_total",
			"Frames written to stream responses."),
		streamFrames: reg.Histogram("vbrsim_stream_request_frames",
			"Frames requested per stream read.",
			[]float64{64, 256, 1024, 4096, 16384, 65536, 262144}),
		admissionRejects: reg.CounterVec("vbrsim_server_admission_rejects_total",
			"Session creations shed by admission control, by reason (cap|budget|pressure|drain).",
			"reason"),
		evictions: reg.Counter("vbrsim_server_evictions_total",
			"Sessions closed by the idle evictor."),
		sweepSeconds: reg.Histogram("vbrsim_server_sweep_seconds",
			"Wall time of one idle-evictor registry sweep.",
			[]float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 1}),
		sessionsSwept: reg.Counter("vbrsim_server_swept_sessions_total",
			"Sessions closed across all idle-evictor sweeps."),
		httpRequests: reg.CounterVec("vbrsim_http_requests_total",
			"HTTP requests served, by endpoint and status code.",
			"endpoint", "code"),
		httpErrors: reg.CounterVec("vbrsim_http_errors_total",
			"HTTP requests that finished with a 5xx status, by endpoint.",
			"endpoint"),
		httpSeconds: reg.HistogramVec("vbrsim_http_request_seconds",
			"HTTP request wall time, by endpoint.",
			[]float64{0.0005, 0.002, 0.01, 0.05, 0.2, 1, 5}, "endpoint"),
		httpInFlight: reg.Gauge("vbrsim_http_in_flight",
			"HTTP requests currently being served."),
		frameEmitSeconds: reg.Histogram("vbrsim_server_frame_emit_seconds",
			"Generate+encode+write wall time of one streamed frame chunk, plus the flush when another chunk follows (a final chunk that fits the HTTP buffer is sent after the handler returns).",
			[]float64{1e-5, 1e-4, 5e-4, 0.002, 0.01, 0.05, 0.25, 1}),
		statmonSampled: reg.Counter("vbrsim_statmon_frames_sampled_total",
			"Frames folded into per-session statistical monitors."),
		jobDuration: reg.SummaryVec("vbrsim_job_duration_seconds",
			"Wall time of finished jobs by kind and status (ok|failed).",
			"kind", "status"),
		jobsFailed: reg.CounterVec("vbrsim_jobs_failed_total",
			"Jobs that finished with an error, by kind.", "kind"),
		jobsRejected: reg.CounterVec("vbrsim_jobs_rejected_total",
			"Job submissions rejected (queue full or drain), by kind.", "kind"),
		estCompleted: reg.Gauge("vbrsim_estimator_completed",
			"Replications folded into the latest estimator snapshot."),
		estP: reg.Gauge("vbrsim_estimator_p",
			"Running overflow-probability estimate of the latest estimator run."),
		estStdErr: reg.Gauge("vbrsim_estimator_std_err",
			"Running standard error of the latest estimator run."),
		estNormVar: reg.Gauge("vbrsim_estimator_norm_var",
			"Running normalized variance (variance/p^2) of the latest estimator run."),
		estVarRatio: reg.Gauge("vbrsim_estimator_variance_ratio",
			"IS-vs-MC variance ratio of the latest estimator run (1 for plain MC)."),
		estRepsPS: reg.Gauge("vbrsim_estimator_reps_per_sec",
			"Replication throughput of the latest estimator run."),
		parRuns: reg.Counter("vbrsim_par_runs_total",
			"Worker-pool fan-out runs observed."),
		parTasks: reg.Counter("vbrsim_par_tasks_total",
			"Tasks executed across observed fan-out runs."),
		parBusy: reg.Counter("vbrsim_par_busy_seconds_total",
			"Summed worker busy time across observed fan-out runs."),
		parPeak: reg.Gauge("vbrsim_par_peak_in_flight",
			"Peak concurrently running workers in the latest fan-out run."),
		parUtil: reg.Gauge("vbrsim_par_utilization",
			"Worker utilization (busy/(wall*workers)) of the latest fan-out run."),
	}
	hosking.Shared.RegisterMetrics(reg)
	streamblock.RegisterMetrics(reg)
	trunk.RegisterMetrics(reg)
	return m
}

// jobDone records a finished job's wall time. Failed jobs land in the
// status="failed" duration series (they consume worker time too) and bump
// the per-kind failure counter.
func (m *metrics) jobDone(kind string, seconds float64, failed bool) {
	status := "ok"
	if failed {
		status = "failed"
		m.jobsFailed.With(kind).Inc()
	}
	m.jobDuration.Observe(seconds, kind, status)
}

// observeEstimator exports a convergence snapshot as the estimator gauges.
// Non-finite values (p=0 early in a rare-event run) are skipped so the
// exposition never carries +Inf from a half-converged run.
func (m *metrics) observeEstimator(c obs.Convergence) {
	m.estCompleted.Set(float64(c.Completed))
	setFinite(m.estP, c.P)
	setFinite(m.estStdErr, c.StdErr)
	setFinite(m.estNormVar, c.NormVar)
	setFinite(m.estVarRatio, c.VarianceRatio)
	m.estRepsPS.Set(c.RepsPerSec)
}

func setFinite(g *obs.Gauge, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.Set(v)
}

// observePar folds one worker-pool run into the par series.
func (m *metrics) observePar(st par.RunStats) {
	m.parRuns.Add(float64(st.Runs))
	m.parTasks.Add(float64(st.Tasks))
	m.parBusy.Add(st.BusyTotal().Seconds())
	m.parPeak.Set(float64(st.PeakInFlight))
	m.parUtil.Set(st.Utilization())
}
