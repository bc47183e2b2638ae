package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
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

// flushCountingResponse is a discardResponse that keeps the body and
// counts Flush calls, so a test sees what the handler hands net/http.
type flushCountingResponse struct {
	discardResponse
	body    bytes.Buffer
	flushes int
}

func (f *flushCountingResponse) Write(b []byte) (int, error) { return f.body.Write(b) }
func (f *flushCountingResponse) Flush()                      { f.flushes++ }

// TestFramesFlushAndFraming pins the frames handler's wire behaviour. It
// flushes only between chunks, so a read of n frames flushes
// ceil(n/streamChunk)-1 times and a small read reaches the socket after
// the handler returns, framed with Content-Length instead of chunked. The
// records body is the parent's record sequence with the terminator in the
// final write, and the NDJSON body is one 'g'-formatted float per line.
func TestFramesFlushAndFraming(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, n := range []int{4, streamChunk, streamChunk + 1, 3 * streamChunk} {
		spec := paperSpec(uint64(30 + n))
		frames, err := spec.Frames(t.Context(), 0, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wantRecords, wantNDJSON []byte
		for lo := 0; lo < n; lo += streamChunk {
			wantRecords = AppendFrameRecord(wantRecords, frames[lo:min(lo+streamChunk, n)])
		}
		wantRecords = AppendFrameTrailer(wantRecords)
		for _, v := range frames {
			wantNDJSON = append(strconv.AppendFloat(wantNDJSON, v, 'g', -1, 64), '\n')
		}
		wantFlushes := (n+streamChunk-1)/streamChunk - 1

		for _, format := range []string{"frames", "ndjson"} {
			info := createStream(t, ts.URL, spec)
			w := &flushCountingResponse{discardResponse: discardResponse{h: http.Header{}}}
			s.ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/v1/streams/%s/frames?n=%d&format=%s", info.ID, n, format), nil))
			if w.flushes != wantFlushes {
				t.Errorf("n=%d %s: %d flushes, want %d", n, format, w.flushes, wantFlushes)
			}
			want := wantNDJSON
			if format == "frames" {
				want = wantRecords
				got, err := NewFrameReader(bytes.NewReader(w.body.Bytes())).ReadAll()
				if err != nil || len(got) != n {
					t.Fatalf("n=%d: decoded %d frames, err %v", n, len(got), err)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(frames[i]) {
						t.Fatalf("n=%d frame %d: %v, want %v", n, i, got[i], frames[i])
					}
				}
			}
			if !bytes.Equal(w.body.Bytes(), want) {
				t.Errorf("n=%d %s: body (%d bytes) differs from the expected %d bytes", n, format, w.body.Len(), len(want))
			}
		}
	}

	// Over a real connection, a 4-frame records read goes out with
	// Content-Length: one record, its payload and the terminator.
	info := createStream(t, ts.URL, paperSpec(34))
	resp, err := http.Get(ts.URL + "/v1/streams/" + info.ID + "/frames?n=4&format=frames")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := int64(frameRecordHeader + 8*4 + frameRecordHeader); resp.ContentLength != want || len(body) != int(want) {
		t.Errorf("4-frame read: Content-Length %d, body %d bytes, want %d", resp.ContentLength, len(body), want)
	}
	if slices.Contains(resp.TransferEncoding, "chunked") {
		t.Errorf("4-frame read sent chunked (Transfer-Encoding %v)", resp.TransferEncoding)
	}
}

// TestFramesRecordsAllocs pins the allocations of a warm records-encoded
// frames request through the whole handler stack (middleware, registry,
// produce loop, encoder), for a small read and one full-chunk-sized read.
// Without an access log the middleware builds no per-request id, context
// or attribute map, and every metric child is resolved before the request;
// the three frames headers cost two (setFrameHeaders).
func TestFramesRecordsAllocs(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ n, want int }{{4, 8}, {256, 8}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			info := createStream(t, ts.URL, paperSpec(9))
			req := httptest.NewRequest("GET", fmt.Sprintf("/v1/streams/%s/frames?n=%d", info.ID, tc.n), nil)
			req.Header.Set("Accept", ContentTypeFrames)
			w := &discardResponse{h: http.Header{}}
			if got := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, req) }); got > float64(tc.want) {
				t.Fatalf("warm %d-frame records request: %v allocs, want <= %d", tc.n, got, tc.want)
			}
		})
	}
}

// TestMiddlewareWriteDeadline sets a write deadline through the RED
// middleware: its response wrapper must unwrap to the connection's writer
// for http.ResponseController.
func TestMiddlewareWriteDeadline(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.instrument(s.newRouteMetrics("deadline"), http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if err := http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SetWriteDeadline through the middleware: HTTP %d %s", resp.StatusCode, body)
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
	sa, _ := s.reg.get(a.ID)
	sb, _ := s.reg.get(b.ID)
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
	m := s.access.Manifest("trafficd", nil, 0, nil, nil)
	if len(m.Stages) != 0 || len(m.Events) != 0 {
		t.Fatalf("tracer retains %d spans, %d events", len(m.Stages), len(m.Events))
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
// defaulted job, and so is "tol": jobs truncate at the default tolerance,
// like every served session.
func TestJobRejectsUnknownFields(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range []map[string]any{
		{"kind": "qsim-mc", "buffer": 5, "replicatons": 10},
		{"kind": "qsim-mc", "buffer": 5, "tol": 1e-2},
	} {
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("job body %v: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

// spaceBody is an endless JSON request body: an object opened and then
// whitespace forever, produced as it is read. It counts the bytes read.
type spaceBody struct{ read int64 }

func (b *spaceBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	if b.read == 0 && len(p) > 0 {
		p[0] = '{'
	}
	b.read += int64(len(p))
	return len(p), nil
}

// TestStreamCreateBodyCap checks POST /v1/streams stops reading a body at
// maxBodyBytes and answers 400, instead of decoding whatever a client
// sends.
func TestStreamCreateBodyCap(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	body := &spaceBody{}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/streams", body))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("over-cap body: HTTP %d %q, want 400 request body too large", rec.Code, rec.Body.String())
	}
	if body.read > maxBodyBytes+1 {
		t.Fatalf("server read %d body bytes, cap is %d", body.read, maxBodyBytes)
	}
}

// TestDeclaredOverCapBodyAllocatedBytes gates what one POST /v1/streams
// that declares a Content-Length above maxBodyBytes allocates, garbage
// included: the exact TotalAlloc delta across the request. The body is
// refused before a byte of it is read, so the 400 costs a few KiB. Reading
// such a body up to the cap would allocate about 256 MiB per request: the
// JSON decoder buffers what it reads.
func TestDeclaredOverCapBodyAllocatedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts allocation counts")
	}
	s := New(Options{})
	defer s.Close()
	body := &spaceBody{}
	req := httptest.NewRequest("POST", "/v1/streams", body)
	req.ContentLength = maxBodyBytes + 1
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("declared over-cap body: HTTP %d %q, want 400 request body too large", rec.Code, rec.Body.String())
	}
	const limit = 1 << 20
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated >= limit {
		t.Errorf("one declared over-cap create allocates %d B, want < %d B", allocated, limit)
	}
	t.Logf("one declared over-cap create allocates %d B and reads %d body bytes", allocated, body.read)
}

// sleepyResponse is a ResponseWriter whose every Write takes at least
// writeDelay, a floor under the handler's time that no scheduling can
// lower.
type sleepyResponse struct{ *httptest.ResponseRecorder }

const writeDelay = time.Millisecond

func (w sleepyResponse) Write(b []byte) (int, error) {
	time.Sleep(writeDelay)
	return w.ResponseRecorder.Write(b)
}

// TestServerP99AgreesWithClient checks the server's latency histogram
// (vbrsim_http_request_seconds{endpoint="frames"} on /metrics) against the
// client's wall time around each ServeHTTP dispatch of the same requests:
// 4 workers each read 1100 frames (two chunks, so two Writes) at a time
// from 8 TES sessions through a sleepyResponse. The middleware's timer is
// nested inside the client's, so each server duration is at most its
// client duration, however long the scheduler keeps a worker off the CPU.
// The two Writes put each server duration above 2 ms. So at every bucket
// bound the server's cumulative count is at least the number of client
// durations within the bound and is 0 below 2 ms, and _count is the number
// of requests. A wrong endpoint label leaves no frames series to count, a
// seconds-vs-millis slip either way moves every observation across one of
// those bounds, and another family (vbrsim_server_frame_emit_seconds, say)
// has no frames-endpoint series.
func TestServerP99AgreesWithClient(t *testing.T) {
	const (
		sessions = 8
		workers  = 4
		perWork  = 50
		floor    = 2 * writeDelay
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
				req := httptest.NewRequest("GET", "/v1/streams/"+ids[(w+i*workers)%sessions]+"/frames?n=1100", nil)
				req.Header.Set("Accept", ContentTypeFrames)
				rec := httptest.NewRecorder()
				t0 := time.Now()
				s.ServeHTTP(sleepyResponse{rec}, req)
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
	client := slices.Concat(lat...)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	f := fams["vbrsim_http_request_seconds"]
	if f == nil {
		t.Fatal("no request latency histogram on /metrics")
	}
	count := -1.0
	for _, smp := range f.Samples {
		if !strings.Contains(smp.Labels, `endpoint="frames"`) {
			continue
		}
		switch {
		case strings.HasSuffix(smp.Name, "_count"):
			count = smp.Value
		case strings.HasSuffix(smp.Name, "_bucket"):
			_, le, _ := strings.Cut(smp.Labels, `le="`)
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err != nil {
				t.Fatalf("bucket labels %s: %v", smp.Labels, err)
			}
			lo, hi := 0, 0
			for _, d := range client {
				if d.Seconds() <= bound {
					lo++
				}
			}
			if bound >= floor.Seconds() {
				hi = len(client)
			}
			if smp.Value < float64(lo) || smp.Value > float64(hi) {
				t.Errorf("le=%v: %v server durations, want within [%d, %d]", bound, smp.Value, lo, hi)
			}
		}
	}
	if count != float64(len(client)) {
		t.Errorf("frames latency _count %v, want %d requests", count, len(client))
	}
}
