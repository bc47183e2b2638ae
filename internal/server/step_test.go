package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"vbrsim/internal/modelspec"
)

func blockPaperSpec(seed uint64) modelspec.Spec {
	s := modelspec.Paper()
	s.Seed = seed
	s.Engine = modelspec.EngineBlock
	return s
}

// TestBlockEngineSessionMatchesOffline locks the served-vs-offline contract
// for block-engine sessions: the frames a session streams, across chunked
// reads and an explicit from= replay, are bit-identical to Spec.Frames.
func TestBlockEngineSessionMatchesOffline(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := blockPaperSpec(4242)
	info := createStream(t, ts.URL, spec)

	want, err := spec.Frames(context.Background(), 0, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=400", ts.URL, info.ID))
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: server %v, offline %v", i, got[i], want[i])
		}
	}
	// Backward seek on the block engine is O(1); it must still land
	// bit-exactly.
	replay := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=100&from=50", ts.URL, info.ID))
	for i := range replay {
		if math.Float64bits(replay[i]) != math.Float64bits(want[50+i]) {
			t.Fatalf("replayed frame %d: %v, want %v", 50+i, replay[i], want[50+i])
		}
	}
}

// TestBlockEngineSeekCapStillEnforced pins the from= guard on block-engine
// sessions: even though their seek is O(1), the 2^24 seek-ahead cap is part
// of the HTTP contract and must reject uniformly across engines.
func TestBlockEngineSeekCapStillEnforced(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := createStream(t, ts.URL, blockPaperSpec(7))
	resp, err := http.Get(fmt.Sprintf("%s/v1/streams/%s/frames?n=1&from=%d", ts.URL, info.ID, maxSeekAhead+2))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("seek beyond cap: status %d, want 400", resp.StatusCode)
	}
}

// TestStreamStepAdvancesBatch drives the batched-stepping endpoint over a
// mixed fleet (both engines) and checks every session advances by exactly
// n with the positions reported, and that a follow-up read continues
// bit-identically to offline generation — stepping is just serving without
// the response body.
func TestStreamStepAdvancesBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const fleet = 5
	const stepN = 500
	var ids []string
	var specs []modelspec.Spec
	for i := 0; i < fleet; i++ {
		spec := blockPaperSpec(uint64(1000 + i))
		if i%2 == 1 {
			spec = paperSpec(uint64(1000 + i)) // interleave truncated engine
		}
		info := createStream(t, ts.URL, spec)
		ids = append(ids, info.ID)
		specs = append(specs, spec)
	}

	resp := postJSON(t, ts.URL+"/v1/streams/step", StepRequest{IDs: ids, N: stepN})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("step: %d %s", resp.StatusCode, body)
	}
	results := decodeJSON[[]StepResult](t, resp)
	if len(results) != fleet {
		t.Fatalf("got %d results, want %d", len(results), fleet)
	}
	for i, res := range results {
		if res.ID != ids[i] {
			t.Fatalf("result %d is for %s, want %s (order must match request)", i, res.ID, ids[i])
		}
		if res.Start != 0 || res.Pos != stepN {
			t.Fatalf("result %d: start %d pos %d, want 0 %d", i, res.Start, res.Pos, stepN)
		}
		if res.Frames != nil {
			t.Fatalf("result %d carries frames without include_frames", i)
		}
	}

	// Continuity: frames read after the step are offline frames stepN+.
	for i, id := range ids {
		want, err := specs[i].Frames(context.Background(), 0, stepN+64, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=64", ts.URL, id))
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[stepN+j]) {
				t.Fatalf("session %s frame %d after step: %v, want %v", id, stepN+j, got[j], want[stepN+j])
			}
		}
	}
}

// TestStreamStepIncludeFrames checks the frame-returning variant is
// bit-identical to offline generation.
func TestStreamStepIncludeFrames(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := blockPaperSpec(31337)
	info := createStream(t, ts.URL, spec)

	resp := postJSON(t, ts.URL+"/v1/streams/step", StepRequest{IDs: []string{info.ID}, N: 256, IncludeFrames: true})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("step: %d %s", resp.StatusCode, body)
	}
	results := decodeJSON[[]StepResult](t, resp)
	want, err := spec.Frames(context.Background(), 0, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Frames) != 256 {
		t.Fatalf("results: %+v", results)
	}
	for i, v := range results[0].Frames {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("stepped frame %d: %v, want %v", i, v, want[i])
		}
	}
}

// TestStreamStepWorkerCountInvariance pins the fan-out contract of the
// sticky-chunk rewrite: the step response — positions and returned frames,
// bit for bit — is identical whatever StepWorkers is, because results are
// keyed by request index and each session's frames depend only on its own
// spec, seed, and cumulative position. The fleet size (11) is chosen to
// not divide evenly into any tested worker count, exercising the ragged
// final chunk. The baseline runs with statmon disabled while the
// multi-worker runs sample every chunk, so the comparison also proves the
// monitor tap is determinism-neutral under concurrent workers.
func TestStreamStepWorkerCountInvariance(t *testing.T) {
	const fleet = 11
	const stepN = 192
	type round struct {
		include bool
		n       int
	}
	rounds := []round{{false, stepN}, {true, 64}, {true, 96}}

	run := func(workers, statmonSample int) [][]StepResult {
		_, ts := newTestServer(t, Options{StepWorkers: workers, StatmonSampleEvery: statmonSample})
		var ids []string
		for i := 0; i < fleet; i++ {
			spec := blockPaperSpec(uint64(9000 + i))
			if i%3 == 1 {
				spec = paperSpec(uint64(9000 + i))
			}
			ids = append(ids, createStream(t, ts.URL, spec).ID)
		}
		var out [][]StepResult
		for _, rd := range rounds {
			resp := postJSON(t, ts.URL+"/v1/streams/step",
				StepRequest{IDs: ids, N: rd.n, IncludeFrames: rd.include})
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("step with %d workers: %d %s", workers, resp.StatusCode, body)
			}
			out = append(out, decodeJSON[[]StepResult](t, resp))
		}
		return out
	}

	want := run(1, -1) // statmon off: the untapped reference
	for _, workers := range []int{3, 16} {
		got := run(workers, 1) // statmon sampling every chunk
		for r := range want {
			if len(got[r]) != len(want[r]) {
				t.Fatalf("workers=%d round %d: %d results, want %d", workers, r, len(got[r]), len(want[r]))
			}
			for i := range want[r] {
				g, w := got[r][i], want[r][i]
				if g.ID != w.ID || g.Start != w.Start || g.Pos != w.Pos || g.Gone != w.Gone {
					t.Fatalf("workers=%d round %d result %d: %+v, want %+v", workers, r, i, g, w)
				}
				if len(g.Frames) != len(w.Frames) {
					t.Fatalf("workers=%d round %d result %d: %d frames, want %d", workers, r, i, len(g.Frames), len(w.Frames))
				}
				for j := range w.Frames {
					if math.Float64bits(g.Frames[j]) != math.Float64bits(w.Frames[j]) {
						t.Fatalf("workers=%d round %d session %d frame %d: %v, want %v",
							workers, r, i, j, g.Frames[j], w.Frames[j])
					}
				}
			}
		}
	}
}

// TestStreamStepDiscardAllocBound bounds the heap a frame-free step
// allocates. The discard path fills through a scratch chunk; one chunk per
// session per request would be fleet × 8 KiB (2 MiB here), one per worker
// run is a few chunks plus the request and response.
func TestStreamStepDiscardAllocBound(t *testing.T) {
	const fleet = 256
	s, ts := newTestServer(t, Options{MaxSessions: fleet})
	ids := make([]string, fleet)
	for i := range ids {
		ids[i] = createStream(t, ts.URL, paperSpec(uint64(500+i))).ID
	}
	body, err := json.Marshal(StepRequest{IDs: ids, N: 256})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/streams/step", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("step: %d %s", rec.Code, rec.Body)
		}
	}
	step() // past the truncated generators' warm-up rows
	const rounds = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	perReq := (m1.TotalAlloc - m0.TotalAlloc) / rounds
	const bound = 256 << 10
	if perReq > bound {
		t.Fatalf("step over %d sessions allocates %d KiB per request, want <= %d KiB",
			fleet, perReq>>10, bound>>10)
	}
	t.Logf("step over %d sessions: %d KiB per request", fleet, perReq>>10)
}

// TestStreamStepValidation exercises the endpoint's rejection paths:
// atomic unknown-id failure (no session moves), bad n, empty batch, and
// the tighter frame-returning bound.
func TestStreamStepValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := createStream(t, ts.URL, blockPaperSpec(55))

	cases := []struct {
		name string
		req  StepRequest
		code int
	}{
		{"unknown id", StepRequest{IDs: []string{info.ID, "s999"}, N: 10}, http.StatusNotFound},
		{"zero n", StepRequest{IDs: []string{info.ID}, N: 0}, http.StatusBadRequest},
		{"empty ids", StepRequest{N: 10}, http.StatusBadRequest},
		{"frames over bound", StepRequest{IDs: []string{info.ID}, N: maxStepReturnFrames + 1, IncludeFrames: true}, http.StatusBadRequest},
		{"step over bound", StepRequest{IDs: []string{info.ID}, N: maxStepFrames + 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/streams/step", tc.req)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	// The atomic-validation promise: the unknown-id request moved nothing.
	resp, err := http.Get(ts.URL + "/v1/streams/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeJSON[SessionInfo](t, resp)
	if got.Pos != 0 {
		t.Fatalf("session advanced to %d by a rejected batch", got.Pos)
	}
}
