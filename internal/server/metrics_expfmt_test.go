package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vbrsim/internal/obs"
)

// documentedMetrics is the DESIGN.md §7/§9 metric table: every name the
// docs promise, with its type. The exposition test fails when the served
// /metrics drifts from this list, and ci.sh re-checks the same names
// against a live daemon.
var documentedMetrics = map[string]string{
	"vbrsim_sessions_active":                     "gauge",
	"vbrsim_sessions_total":                      "counter",
	"vbrsim_streams_rejected_total":              "counter",
	"vbrsim_frames_streamed_total":               "counter",
	"vbrsim_stream_request_frames":               "histogram",
	"vbrsim_job_duration_seconds":                "summary",
	"vbrsim_jobs_failed_total":                   "counter",
	"vbrsim_jobs_rejected_total":                 "counter",
	"vbrsim_estimator_completed":                 "gauge",
	"vbrsim_estimator_p":                         "gauge",
	"vbrsim_estimator_std_err":                   "gauge",
	"vbrsim_estimator_norm_var":                  "gauge",
	"vbrsim_estimator_variance_ratio":            "gauge",
	"vbrsim_estimator_reps_per_sec":              "gauge",
	"vbrsim_par_runs_total":                      "counter",
	"vbrsim_par_tasks_total":                     "counter",
	"vbrsim_par_busy_seconds_total":              "counter",
	"vbrsim_par_peak_in_flight":                  "gauge",
	"vbrsim_par_utilization":                     "gauge",
	"vbrsim_plan_cache_hits_total":               "counter",
	"vbrsim_plan_cache_misses_total":             "counter",
	"vbrsim_plan_cache_evictions_total":          "counter",
	"vbrsim_plan_cache_singleflight_waits_total": "counter",
	"vbrsim_plan_cache_bytes":                    "gauge",
	"vbrsim_plan_cache_build_seconds_total":      "counter",
	"vbrsim_streamblock_refills_total":           "counter",
	"vbrsim_streamblock_arena_bytes":             "gauge",
	"vbrsim_streamblock_block_ns":                "histogram",
	"vbrsim_trunk_sessions_active":               "gauge",
	"vbrsim_trunk_sources_active":                "gauge",
	"vbrsim_trunk_fanout_ns":                     "histogram",
	"vbrsim_server_admission_rejects_total":      "counter",
	"vbrsim_server_evictions_total":              "counter",
	"vbrsim_server_admission_cost_used":          "gauge",
	"vbrsim_server_sweep_seconds":                "histogram",
	"vbrsim_server_swept_sessions_total":         "counter",
	"vbrsim_http_requests_total":                 "counter",
	"vbrsim_http_errors_total":                   "counter",
	"vbrsim_http_request_seconds":                "histogram",
	"vbrsim_http_in_flight":                      "gauge",
	"vbrsim_server_frame_emit_seconds":           "histogram",
	"vbrsim_statmon_frames_sampled_total":        "counter",
	"vbrsim_statmon_hurst":                       "gauge",
	"vbrsim_statmon_acf_err":                     "gauge",
	"vbrsim_statmon_drift":                       "gauge",
	"vbrsim_statmon_sessions_monitored":          "gauge",
	"vbrsim_statmon_sessions_drifting":           "gauge",
}

// TestMetricsExpositionComplete scrapes a fresh server's /metrics through
// the obs parser and asserts the exposition is lint-clean and carries
// every documented metric with the documented type.
func TestMetricsExpositionComplete(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	// Exercise the labeled families so they carry samples, not just
	// HELP/TYPE headers.
	s.metrics.jobDone("fit", 0.5, false)
	s.metrics.jobDone("qsim-is", 1.5, true)
	s.metrics.jobsRejected.With("qsim-mc").Inc()
	s.metrics.streamFrames.Observe(100)
	s.metrics.admissionRejects.With(rejectPressure).Inc()
	s.metrics.evictions.Inc()
	s.metrics.observeEstimator(obs.Convergence{
		Completed: 10, Total: 100, P: 1e-5, StdErr: 1e-6,
		NormVar: 12, VarianceRatio: 8000, RepsPerSec: 500,
	})
	// One evictor sweep and one instrumented request, so the sweep
	// histogram and the RED request counter carry samples.
	s.evictIdleOnce()
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}

	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if probs := obs.Lint(fams); len(probs) > 0 {
		t.Fatalf("exposition lint problems: %v", probs)
	}
	for name, typ := range documentedMetrics {
		f, ok := fams[name]
		if !ok {
			t.Errorf("documented metric %s missing from /metrics", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("metric %s has type %s, documented as %s", name, f.Type, typ)
		}
	}

	// Spot-check the satellite fixes surfaced in the exposition: failed
	// jobs carry durations, rejections are per kind.
	wantSamples := map[string]bool{
		`vbrsim_job_duration_seconds_sum{kind="qsim-is",status="failed"}`: false,
		`vbrsim_job_duration_seconds_sum{kind="fit",status="ok"}`:         false,
		`vbrsim_jobs_rejected_total{kind="qsim-mc"}`:                      false,
		`vbrsim_server_admission_rejects_total{reason="pressure"}`:        false,
		`vbrsim_server_sweep_seconds_count`:                               false,
		`vbrsim_http_requests_total{endpoint="healthz",code="200"}`:       false,
	}
	for _, f := range fams {
		for _, smp := range f.Samples {
			key := smp.Name + smp.Labels
			if _, ok := wantSamples[key]; ok {
				wantSamples[key] = true
				if smp.Value <= 0 {
					t.Errorf("sample %s = %v, want > 0", key, smp.Value)
				}
			}
		}
	}
	for key, seen := range wantSamples {
		if !seen {
			t.Errorf("expected sample %s not served", key)
		}
	}
}

// TestFailedJobDurationRecorded pins the satellite fix at the metrics API
// level: a failed job contributes wall time under status="failed" and does
// not pollute the ok series.
func TestFailedJobDurationRecorded(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	s.metrics.jobDone("fit", 2.0, true)
	s.metrics.jobDone("fit", 1.0, false)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, smp := range fams["vbrsim_job_duration_seconds"].Samples {
		got[smp.Name+smp.Labels] = smp.Value
	}
	if got[`vbrsim_job_duration_seconds_sum{kind="fit",status="failed"}`] != 2.0 {
		t.Errorf("failed duration sum = %v, want 2", got[`vbrsim_job_duration_seconds_sum{kind="fit",status="failed"}`])
	}
	if got[`vbrsim_job_duration_seconds_count{kind="fit",status="failed"}`] != 1 {
		t.Errorf("failed duration count = %v, want 1", got[`vbrsim_job_duration_seconds_count{kind="fit",status="failed"}`])
	}
	if got[`vbrsim_job_duration_seconds_sum{kind="fit",status="ok"}`] != 1.0 {
		t.Errorf("ok duration sum = %v, want 1", got[`vbrsim_job_duration_seconds_sum{kind="fit",status="ok"}`])
	}
	if fams["vbrsim_jobs_failed_total"].Samples[0].Value != 1 {
		t.Errorf("jobs failed = %+v", fams["vbrsim_jobs_failed_total"].Samples)
	}
}

// TestRequestMixSeries pins the request-path series after a fixed request
// mix: the per-route children (resolved at route registration, request
// counters cached per status code) must count exactly what per-request
// label lookups counted. The values are those the label-lookup middleware
// produced for this mix.
func TestRequestMixSeries(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	got := requestMixSeries(t, s)

	// Every route is pre-touched, so the families carry one series per
	// endpoint (14) and per endpoint and seen code (5).
	perFamily := map[string]int{}
	for k := range got {
		perFamily[k[:strings.IndexByte(k, '{')]]++
	}
	for name, want := range map[string]int{
		"vbrsim_http_requests_total":        5,
		"vbrsim_http_errors_total":          14,
		"vbrsim_http_request_seconds_count": 14,
	} {
		if perFamily[name] != want {
			t.Errorf("%s: %d series, want %d", name, perFamily[name], want)
		}
	}
	want := map[string]float64{
		`vbrsim_http_request_seconds_count{endpoint="frames"}`:            3,
		`vbrsim_http_request_seconds_count{endpoint="stream_create"}`:     2,
		`vbrsim_http_request_seconds_count{endpoint="stream_delete"}`:     1,
		`vbrsim_http_requests_total{endpoint="frames",code="200"}`:        1,
		`vbrsim_http_requests_total{endpoint="frames",code="400"}`:        1,
		`vbrsim_http_requests_total{endpoint="frames",code="404"}`:        1,
		`vbrsim_http_requests_total{endpoint="stream_create",code="201"}`: 2,
		`vbrsim_http_requests_total{endpoint="stream_delete",code="204"}`: 1,
	}
	for k, v := range got {
		if v != want[k] {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s not served", k)
		}
	}
}

// requestMixSeries serves a fixed request mix through s and returns the
// series the request path's cached metric children feed, as
// "name{labels}" -> value. The mix: two creates (201), a 4-frame read
// (200), a read of an unknown id (404), a read with a bad n (400) and a
// delete (204).
func requestMixSeries(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	spec, err := json.Marshal(tesTestSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range []struct {
		method, target string
		body           []byte
		code           int
	}{
		{"POST", "/v1/streams", spec, http.StatusCreated},
		{"POST", "/v1/streams", spec, http.StatusCreated},
		{"GET", "/v1/streams/s1/frames?n=4", nil, http.StatusOK},
		{"GET", "/v1/streams/s9/frames?n=4", nil, http.StatusNotFound},
		{"GET", "/v1/streams/s1/frames?n=0", nil, http.StatusBadRequest},
		{"DELETE", "/v1/streams/s2", nil, http.StatusNoContent},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.target, bytes.NewReader(rq.body)))
		if rec.Code != rq.code {
			t.Fatalf("%s %s: HTTP %d, want %d", rq.method, rq.target, rec.Code, rq.code)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, name := range []string{
		"vbrsim_http_requests_total", "vbrsim_http_errors_total", "vbrsim_http_request_seconds",
	} {
		for _, smp := range fams[name].Samples {
			if strings.HasSuffix(smp.Name, "_bucket") || strings.HasSuffix(smp.Name, "_sum") {
				continue
			}
			got[smp.Name+smp.Labels] = smp.Value
		}
	}
	return got
}

// TestRouteCodeCacheFirstUse races the first use of a new status code on
// one route: every request must land on the same request counter child,
// and the -race run checks the copy-on-write code cache.
func TestRouteCodeCacheFirstUse(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	h := s.instrument(s.newRouteMetrics("teapot"), http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/teapot", nil))
			}
		}()
	}
	wg.Wait()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	var series int
	for _, smp := range fams["vbrsim_http_requests_total"].Samples {
		if strings.Contains(smp.Labels, `endpoint="teapot"`) {
			series++
			if smp.Labels != `{endpoint="teapot",code="418"}` || smp.Value != workers*each {
				t.Errorf("%s%s = %v, want code 418 counted %d times", smp.Name, smp.Labels, smp.Value, workers*each)
			}
		}
	}
	if series != 1 {
		t.Fatalf("%d teapot request series, want 1", series)
	}
}
