package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vbrsim/internal/modelspec"
)

// fgnSpec builds a truncated-engine spec generating fGn-correlated traffic
// with the given ACF Hurst parameter; claimedH is the fit-metadata H the
// spec promises (the statistical monitor checks served traffic against the
// claim, so claimedH != h is a deliberately mis-modeled stream).
func fgnSpec(h, claimedH float64, seed uint64) modelspec.Spec {
	return modelspec.Spec{
		ACF:      modelspec.ACFSpec{Kind: modelspec.ACFFGN, H: h},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
		H:        claimedH,
		Seed:     seed,
	}
}

// TestStatmonSamplingBitIdentity is the determinism-neutrality acceptance
// gate: with the monitor sampling every chunk, served frames — across both
// engines, chunked reads, a seek replay, and a trunk superposition — are
// bit-identical to offline synthesis (single streams) and to a statmon-off
// server (trunks).
func TestStatmonSamplingBitIdentity(t *testing.T) {
	s, ts := newTestServer(t, Options{StatmonSampleEvery: 1})
	_, tsOff := newTestServer(t, Options{StatmonSampleEvery: -1})

	for _, tc := range []struct {
		name string
		spec modelspec.Spec
	}{
		{"truncated", paperSpec(2026)},
		{"block", blockPaperSpec(2026)},
		{"fgn", fgnSpec(0.8, 0.8, 2026)},
	} {
		info := createStream(t, ts.URL, tc.spec)
		want, err := tc.spec.Frames(context.Background(), 0, 3000, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Two reads spanning several monitor chunks, then a replay.
		got := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=2500", ts.URL, info.ID))
		got = append(got, readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=500", ts.URL, info.ID))...)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s frame %d: monitored server %v, offline %v", tc.name, i, got[i], want[i])
			}
		}
		replay := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=200&from=700", ts.URL, info.ID))
		for i := range replay {
			if math.Float64bits(replay[i]) != math.Float64bits(want[700+i]) {
				t.Fatalf("%s replayed frame %d: %v, want %v", tc.name, 700+i, replay[i], want[700+i])
			}
		}
	}

	// Trunk sessions: statmon-on vs statmon-off servers must serve the same
	// bytes (trunks have no single-call offline helper here, but the off
	// server is already pinned to trunk.Open by TestTrunkSessionMatchesOffline).
	tspec := map[string]any{
		"name": "t", "seed": 11,
		"components": []map[string]any{{"count": 3, "spec": paperSpec(0)}},
	}
	on := decodeJSON[SessionInfo](t, postJSON(t, ts.URL+"/v1/trunks", tspec))
	off := decodeJSON[SessionInfo](t, postJSON(t, tsOff.URL+"/v1/trunks", tspec))
	gotT := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=2100", ts.URL, on.ID))
	wantT := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=2100", tsOff.URL, off.ID))
	if len(gotT) != len(wantT) {
		t.Fatalf("trunk: %d vs %d frames", len(gotT), len(wantT))
	}
	for i := range gotT {
		if math.Float64bits(gotT[i]) != math.Float64bits(wantT[i]) {
			t.Fatalf("trunk frame %d: monitored %v, unmonitored %v", i, gotT[i], wantT[i])
		}
	}
	_ = s
}

// stepFrames advances a session by n frames through the step endpoint (the
// cheapest way to push a statistically meaningful frame count through the
// serve path and its monitor tap).
func stepFrames(t *testing.T, base, id string, n int) {
	t.Helper()
	resp := postJSON(t, base+"/v1/streams/step", StepRequest{IDs: []string{id}, N: n})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("step: %d %s", resp.StatusCode, body)
	}
	resp.Body.Close()
}

func getSessionStats(t *testing.T, base, id string) SessionStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	return decodeJSON[SessionStats](t, resp)
}

// TestStatmonDriftDetection is the end-to-end drift gate: a conforming
// session (generated H == claimed H) must not drift, while a session whose
// spec claims H 0.15 above what its ACF generates must trip the drift
// score, the /v1/status rollup, and the vbrsim_statmon_* gauges.
func TestStatmonDriftDetection(t *testing.T) {
	const frames = 1 << 17
	_, ts := newTestServer(t, Options{StatmonSampleEvery: 1})
	good := createStream(t, ts.URL, fgnSpec(0.75, 0.75, 31))
	bad := createStream(t, ts.URL, fgnSpec(0.75, 0.90, 32)) // claims 0.90, serves 0.75
	stepFrames(t, ts.URL, good.ID, frames)
	stepFrames(t, ts.URL, bad.ID, frames)

	gs := getSessionStats(t, ts.URL, good.ID)
	if !gs.Monitored || gs.Stats == nil {
		t.Fatalf("conforming session not monitored: %+v", gs)
	}
	if gs.Stats.Frames != frames {
		t.Fatalf("conforming monitor saw %d frames, want %d", gs.Stats.Frames, frames)
	}
	if !gs.Stats.HurstValid {
		t.Fatalf("conforming session has no Hurst estimate: %+v", gs.Stats)
	}
	if gs.Stats.Drifting {
		t.Fatalf("conforming session flagged as drifting: %+v", gs.Stats)
	}
	if gs.Stats.Drift >= 1 {
		t.Fatalf("conforming drift score %v, want < 1", gs.Stats.Drift)
	}

	bs := getSessionStats(t, ts.URL, bad.ID)
	if !bs.Stats.Drifting {
		t.Fatalf("mis-modeled session (claimed H 0.90, served 0.75) not drifting: %+v", bs.Stats)
	}
	if bs.Stats.HurstErr < 0.10 {
		t.Fatalf("mis-modeled Hurst error %v, want >= 0.10", bs.Stats.HurstErr)
	}

	// Fleet rollup: the status endpoint names the drifting session.
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	rep := decodeJSON[StatusReport](t, resp)
	if rep.Sessions != 2 || rep.Statmon.Monitored != 2 {
		t.Fatalf("status sessions=%d monitored=%d, want 2/2", rep.Sessions, rep.Statmon.Monitored)
	}
	if rep.Statmon.Drifting != 1 || len(rep.DriftingIDs) != 1 || rep.DriftingIDs[0] != bad.ID {
		t.Fatalf("status drift rollup: %+v", rep)
	}
	if rep.Statmon.MaxDrift < 1 {
		t.Fatalf("status max drift %v, want >= 1", rep.Statmon.MaxDrift)
	}

	// And the gauges agree.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	if v := metricValue(t, text, "vbrsim_statmon_sessions_monitored"); v != 2 {
		t.Errorf("sessions_monitored = %v, want 2", v)
	}
	if v := metricValue(t, text, "vbrsim_statmon_sessions_drifting"); v != 1 {
		t.Errorf("sessions_drifting = %v, want 1", v)
	}
	if v := metricValue(t, text, "vbrsim_statmon_drift"); v < 1 {
		t.Errorf("statmon drift gauge = %v, want >= 1", v)
	}
	if v := metricValue(t, text, "vbrsim_statmon_hurst"); v < 0.5 || v > 1 {
		t.Errorf("statmon hurst gauge = %v, want in (0.5, 1)", v)
	}
	if v := metricValue(t, text, "vbrsim_statmon_frames_sampled_total"); v != 2*frames {
		t.Errorf("frames sampled = %v, want %v", v, 2*frames)
	}
}

// TestStatmonDisabled pins the opt-out: negative sampling means no monitor,
// an honest stats response, and zero-valued fleet gauges.
func TestStatmonDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{StatmonSampleEvery: -1})
	info := createStream(t, ts.URL, paperSpec(5))
	readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=100", ts.URL, info.ID))
	st := getSessionStats(t, ts.URL, info.ID)
	if st.Monitored || st.Stats != nil {
		t.Fatalf("disabled statmon reported stats: %+v", st)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v := metricValue(t, string(body), "vbrsim_statmon_sessions_monitored"); v != 0 {
		t.Fatalf("sessions_monitored = %v with statmon disabled", v)
	}
}

// TestStatmonSampledSessionStats checks the default (sampled) configuration
// feeds the monitor a strict subset of chunks while keeping its statistics
// coherent — and that the trunk session gets a no-reference monitor that
// tracks moments without ever scoring drift.
func TestStatmonSampledSessionStats(t *testing.T) {
	_, ts := newTestServer(t, Options{StatmonSampleEvery: 4})
	info := createStream(t, ts.URL, paperSpec(77))
	stepFrames(t, ts.URL, info.ID, 64*1024)
	st := getSessionStats(t, ts.URL, info.ID)
	if !st.Monitored {
		t.Fatal("session not monitored")
	}
	// 64 chunks of 1024 at SampleEvery=4: exactly 16 observed chunks.
	if st.Stats.Frames != 16*1024 {
		t.Fatalf("sampled monitor saw %d frames, want %d", st.Stats.Frames, 16*1024)
	}
	if st.Stats.Mean <= 0 {
		t.Fatalf("observed mean %v, want > 0 (lognormal frames)", st.Stats.Mean)
	}

	tr := decodeJSON[SessionInfo](t, postJSON(t, ts.URL+"/v1/trunks", map[string]any{
		"seed": 3, "components": []map[string]any{{"count": 2, "spec": paperSpec(0)}},
	}))
	stepFrames(t, ts.URL, tr.ID, 64*1024)
	tst := getSessionStats(t, ts.URL, tr.ID)
	if !tst.Monitored || tst.Kind != sessionKindTrunk {
		t.Fatalf("trunk stats: %+v", tst)
	}
	if tst.Stats.Drift != 0 || tst.Stats.Drifting {
		t.Fatalf("reference-free trunk monitor scored drift: %+v", tst.Stats)
	}
	if tst.Stats.Variance <= 0 {
		t.Fatalf("trunk variance %v, want > 0", tst.Stats.Variance)
	}
}

// TestSessionStatsNotFound covers the stats endpoint's error paths.
func TestSessionStatsNotFound(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/sessions/s999/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session stats: %d, want 404", resp.StatusCode)
	}
}

// TestRequestMetricsRED checks the middleware end-to-end: per-endpoint
// request counters with status codes, the latency histogram, the in-flight
// gauge back at zero, and the frame-emission histogram fed by the streamed
// chunks.
func TestRequestMetricsRED(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := createStream(t, ts.URL, paperSpec(8))
	readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=2500", ts.URL, info.ID))
	if resp, err := http.Get(ts.URL + "/v1/streams/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)

	for _, want := range []string{
		`vbrsim_http_requests_total{endpoint="stream_create",code="201"} 1`,
		`vbrsim_http_requests_total{endpoint="frames",code="200"} 1`,
		`vbrsim_http_requests_total{endpoint="stream_get",code="404"} 1`,
		`vbrsim_http_in_flight 1`, // the in-flight scrape itself
		`vbrsim_http_errors_total{endpoint="frames"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if v := metricValue(t, text, `vbrsim_http_request_seconds_count{endpoint="frames"}`); v != 1 {
		t.Errorf("frames request histogram count = %v, want 1", v)
	}
	if v := metricValue(t, text, `vbrsim_http_request_seconds_bucket{endpoint="frames",le="+Inf"}`); v != 1 {
		t.Errorf("frames request histogram +Inf bucket = %v, want 1", v)
	}
	// 2500 frames = 3 chunks through the emit histogram.
	if v := metricValue(t, text, "vbrsim_server_frame_emit_seconds_count"); v != 3 {
		t.Errorf("frame emit count = %v, want 3", v)
	}
}

// TestAccessLogNDJSON drives a few requests through a server with an access
// log attached and validates the output the same way the tracer tests do:
// every line is one JSON object, access lines carry request ids, endpoint
// labels, status, and timing, and request ids are unique.
func TestAccessLogNDJSON(t *testing.T) {
	var buf lockedBuffer
	_, ts := newTestServer(t, Options{AccessLog: &buf})
	info := createStream(t, ts.URL, paperSpec(21))
	readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=100", ts.URL, info.ID))
	if resp, err := http.Get(ts.URL + "/v1/streams/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	seenIDs := map[string]bool{}
	var accessLines int
	var sawFrames, saw404 bool
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := sc.Bytes()
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", line, err)
		}
		typ, _ := m["type"].(string)
		if typ != "access" {
			continue // pipeline spans share the stream; they are valid too
		}
		accessLines++
		id, _ := m["req_id"].(string)
		if id == "" {
			t.Fatalf("access line missing req_id: %q", line)
		}
		if seenIDs[id] {
			t.Fatalf("duplicate req_id %s", id)
		}
		seenIDs[id] = true
		for _, k := range []string{"method", "path", "endpoint", "status", "seconds", "bytes", "t_sec"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("access line missing %s: %q", k, line)
			}
		}
		if m["endpoint"] == "frames" && m["status"].(float64) == 200 {
			sawFrames = true
			if m["bytes"].(float64) <= 0 {
				t.Fatalf("frames access line with no bytes: %q", line)
			}
		}
		if m["status"].(float64) == 404 {
			saw404 = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if accessLines != 3 {
		t.Fatalf("access lines = %d, want 3", accessLines)
	}
	if !sawFrames || !saw404 {
		t.Fatalf("access log missing expected lines (frames=%v, 404=%v):\n%s", sawFrames, saw404, buf.Bytes())
	}
}

// lockedBuffer is a goroutine-safe bytes.Buffer for access-log capture
// (the tracer serializes writes, but the test reads concurrently with the
// server's cleanup).
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.b.Bytes()...)
}

// TestSweepMetricsRecorded pins the instrumented evictor: a sweep that
// closes an idle session shows up in both the sweep-duration histogram and
// the swept-sessions counter.
func TestSweepMetricsRecorded(t *testing.T) {
	s, ts := newTestServer(t, Options{IdleTimeout: time.Minute})
	info := createStream(t, ts.URL, paperSpec(99))
	ss, ok := s.reg.get(info.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	ss.lastTouch.Store(time.Now().Add(-2 * time.Minute).UnixNano())
	if n := s.evictIdleOnce(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if v := metricValue(t, text, "vbrsim_server_swept_sessions_total"); v != 1 {
		t.Errorf("swept sessions = %v, want 1", v)
	}
	if v := metricValue(t, text, "vbrsim_server_sweep_seconds_count"); v != 1 {
		t.Errorf("sweep histogram count = %v, want 1", v)
	}
	if v := metricValue(t, text, "vbrsim_server_evictions_total"); v != 1 {
		t.Errorf("evictions = %v, want 1", v)
	}
}
