package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"vbrsim/internal/obs"
)

// TestSessionSize pins the per-session footprint at 128 bytes: a session's
// kind and source count are derived from its stream, not stored. At 10 000
// sessions every 8 bytes is 0.08 MB of live heap.
func TestSessionSize(t *testing.T) {
	if got := unsafe.Sizeof(session{}); got > 128 {
		t.Fatalf("unsafe.Sizeof(session{}) = %d, want <= 128", got)
	}
}

// discardResponse is an http.ResponseWriter that keeps nothing, so an
// allocation count measures the handler alone.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Flush()                      {}

// TestFramesRecordsAllocs pins the allocations of a warm records-encoded
// frames request through the whole handler stack (middleware, registry,
// produce loop, encoder). Without an access log the middleware builds no
// per-request attribute map.
func TestFramesRecordsAllocs(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	info := createStream(t, ts.URL, paperSpec(9))
	req := httptest.NewRequest("GET", "/v1/streams/"+info.ID+"/frames?n=256", nil)
	req.Header.Set("Accept", ContentTypeFrames)
	w := &discardResponse{h: http.Header{}}
	const want = 27
	if got := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, req) }); got > want {
		t.Fatalf("warm 256-frame records request: %v allocs, want <= %d", got, want)
	}
}

// TestStepIncludeFramesTapsPerChunk steps twin sessions by the same
// n = 4·streamChunk, one returning its frames and one discarding them, at
// the default statmon sampling. Both go through the same chunked produce
// loop, so the monitors see the same taps and end in identical states.
func TestStepIncludeFramesTapsPerChunk(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	a := createStream(t, ts.URL, paperSpec(11))
	b := createStream(t, ts.URL, paperSpec(11))
	step := func(id string, include bool) {
		body, err := json.Marshal(StepRequest{IDs: []string{id}, N: 4 * streamChunk, IncludeFrames: include})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/streams/step", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("step: %d %s", rec.Code, rec.Body)
		}
	}
	// 16 steps of 4 chunks: two sampled chunks at 1-in-32.
	for i := 0; i < 16; i++ {
		step(a.ID, true)
		step(b.ID, false)
	}
	sa, _ := s.getSession(a.ID)
	sb, _ := s.getSession(b.ID)
	snapA, snapB := sa.mon.Snapshot(), sb.mon.Snapshot()
	if snapA.Frames == 0 {
		t.Fatal("no frames observed; the test no longer exercises sampling")
	}
	// %+v, not reflect.DeepEqual: unset estimates may be NaN.
	if x, y := fmt.Sprintf("%+v", snapA), fmt.Sprintf("%+v", snapB); x != y {
		t.Fatalf("include_frames and discard steps left different monitors:\n%s\n%s", x, y)
	}
}

// TestFramesFormatRejected checks that format= takes only frames and
// ndjson: the raw float64 encoding (format=binary) is gone, and an
// unknown value is a 400 naming the two, not a silent NDJSON fallback.
func TestFramesFormatRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := createStream(t, ts.URL, paperSpec(12))
	for _, f := range []string{"binary", "json"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/streams/%s/frames?n=4&format=%s", ts.URL, info.ID, f))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("format=%s: HTTP %d, want 400", f, resp.StatusCode)
		}
		if !strings.Contains(string(body), "frames") || !strings.Contains(string(body), "ndjson") {
			t.Fatalf("format=%s: error %q does not name frames and ndjson", f, body)
		}
	}
	// A rejected format leaves the session where it was.
	got := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=4&format=ndjson", ts.URL, info.ID))
	spec := paperSpec(12)
	want, err := spec.Frames(t.Context(), 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAccessLogKeepsNothing runs 1000 requests through a server with an
// access log: every line is streamed, and the tracer retains no events or
// spans, so a long-running daemon's heap does not grow per request.
func TestAccessLogKeepsNothing(t *testing.T) {
	var buf lockedBuffer
	s, _ := newTestServer(t, Options{AccessLog: &buf})
	w := &discardResponse{h: http.Header{}}
	for i := 0; i < 1000; i++ {
		s.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 1000 {
		t.Fatalf("access log has %d lines, want 1000", lines)
	}
	if n := len(s.access.Spans()); n != 0 {
		t.Fatalf("tracer retains %d spans", n)
	}
	if n := len(s.access.Manifest("trafficd", nil, 0, nil, nil).Events); n != 0 {
		t.Fatalf("tracer retains %d events", n)
	}
}

// TestSessionIDOrder pins the session-ID order used by GET /v1/streams
// and the /v1/status drifting list: numeric, so s2 sorts before s10.
func TestSessionIDOrder(t *testing.T) {
	if compareSessionIDs("s2", "s10") >= 0 || compareSessionIDs("s10", "s2") <= 0 || compareSessionIDs("s7", "s7") != 0 {
		t.Fatal("compareSessionIDs is not numeric")
	}
	_, ts := newTestServer(t, Options{})
	for i := 0; i < 12; i++ {
		createStream(t, ts.URL, tesTestSpec(uint64(i+1)))
	}
	resp, err := http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	infos := decodeJSON[[]SessionInfo](t, resp)
	if len(infos) != 12 {
		t.Fatalf("listed %d sessions, want 12", len(infos))
	}
	for i, info := range infos {
		if want := fmt.Sprintf("s%d", i+1); info.ID != want {
			t.Fatalf("list position %d is %s, want %s", i, info.ID, want)
		}
	}
}

// TestJobRejectsUnknownFields checks POST /v1/jobs decodes strictly, like
// the other POST endpoints: a misspelled field is a 400, not a silently
// defaulted job.
func TestJobRejectsUnknownFields(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"kind": "qsim-mc", "buffer": 5, "replicatons": 10})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misspelled job field: HTTP %d, want 400", resp.StatusCode)
	}
}

// scrapeServerP99 reads the server's request-latency histogram off its own
// /metrics page and returns the interpolated p99 of the frames endpoint.
func scrapeServerP99(t *testing.T, s *Server) time.Duration {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := obs.HistogramQuantile(fams["vbrsim_http_request_seconds"], `endpoint="frames"`, 0.99)
	if !ok {
		t.Fatal("no frames-endpoint latency histogram on /metrics")
	}
	return time.Duration(q * float64(time.Second))
}

// TestServerP99AgreesWithClient cross-checks two p99 measurements of the
// same requests: the client-side one (wall time around each ServeHTTP
// dispatch, 4 workers reading 2 frames at a time from 8 TES sessions) and
// the server-side one (interpolated from the
// vbrsim_http_request_seconds{endpoint="frames"} histogram on /metrics).
// The server estimate is quantized to its bucket grid, so both values must
// land in the same or an adjacent bucket — any wiring error (wrong endpoint
// label, seconds-vs-millis confusion, scraping the wrong family) moves the
// server value by whole buckets or kills it entirely.
func TestServerP99AgreesWithClient(t *testing.T) {
	const (
		sessions = 8
		workers  = 4
		perWork  = 500
	)
	s, ts := newTestServer(t, Options{})
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = createStream(t, ts.URL, tesTestSpec(uint64(43+i))).ID
	}
	lat := make([][]time.Duration, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := range lat {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				req := httptest.NewRequest("GET", "/v1/streams/"+ids[(w+i*workers)%sessions]+"/frames?n=2", nil)
				req.Header.Set("Accept", ContentTypeFrames)
				rec := httptest.NewRecorder()
				t0 := time.Now()
				s.ServeHTTP(rec, req)
				lat[w] = append(lat[w], time.Since(t0))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("frames: HTTP %d %s", rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	all := slices.Concat(lat...)
	slices.Sort(all)
	cp99, sp99 := all[len(all)*99/100], scrapeServerP99(t, s)

	// The request-histogram bucket bounds from metrics.go.
	bounds := []time.Duration{
		500 * time.Microsecond, 2 * time.Millisecond, 10 * time.Millisecond,
		50 * time.Millisecond, 200 * time.Millisecond, time.Second, 5 * time.Second,
	}
	bucketOf := func(d time.Duration) int {
		for i, ub := range bounds {
			if d <= ub {
				return i
			}
		}
		return len(bounds)
	}
	if cb, sb := bucketOf(cp99), bucketOf(sp99); cb-sb < -1 || cb-sb > 1 {
		t.Fatalf("client p99 %v (bucket %d) and server p99 %v (bucket %d) disagree beyond one histogram bucket",
			cp99, cb, sp99, sb)
	}
}
