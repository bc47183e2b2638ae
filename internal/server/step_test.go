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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/trunk"
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
// atomic unknown-id failure (no session moves), a repeated id, bad n,
// empty batch, and the tighter frame-returning bound.
func TestStreamStepValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := createStream(t, ts.URL, blockPaperSpec(55))
	other := createStream(t, ts.URL, paperSpec(56))

	cases := []struct {
		name string
		req  StepRequest
		code int
		msg  string // in the error body, when set
	}{
		{"unknown id", StepRequest{IDs: []string{info.ID, "s999"}, N: 10}, http.StatusNotFound, ""},
		{"repeated id", StepRequest{IDs: []string{info.ID, other.ID, info.ID}, N: 10}, http.StatusBadRequest, info.ID},
		{"zero n", StepRequest{IDs: []string{info.ID}, N: 0}, http.StatusBadRequest, ""},
		{"empty ids", StepRequest{N: 10}, http.StatusBadRequest, ""},
		{"frames over bound", StepRequest{IDs: []string{info.ID}, N: maxStepReturnFrames + 1, IncludeFrames: true}, http.StatusBadRequest, ""},
		{"step over bound", StepRequest{IDs: []string{info.ID}, N: maxStepFrames + 1}, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/streams/step", tc.req)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		if !strings.Contains(string(body), tc.msg) {
			t.Errorf("%s: error %q does not name %s", tc.name, body, tc.msg)
		}
	}
	// The atomic-validation promise: no rejected request moved anything.
	for _, id := range []string{info.ID, other.ID} {
		resp, err := http.Get(ts.URL + "/v1/streams/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeJSON[SessionInfo](t, resp); got.Pos != 0 {
			t.Fatalf("session %s advanced to %d by a rejected batch", id, got.Pos)
		}
	}
}

// stepFleetSession is one session of the lockstep differential fleet and
// its offline twin, advanced alongside it.
type stepFleetSession struct {
	id   string
	spec *modelspec.Spec // nil for the trunk
	twin interface{ Fill([]float64) }
	pos  int
}

// TestStreamStepLockstepDifferential steps a fleet that mixes truncated
// sessions of two truncations (and two marginals over one of them) with
// block, tes and trunk sessions, some fresh (inside warm-up) and some moved
// off frame 0 by an earlier read, with and without include_frames, for n
// across the chunk boundaries. The list holds runs of four sessions of one
// truncation, so full lane groups form, and runs that mix engines. Every session's Start/Pos must be right and
// its frames byte-equal to an offline twin filled frame range by frame
// range, whatever lockstep groups the workers formed; at the end each
// plain session's next frames equal Spec.Frames at its position.
func TestStreamStepLockstepDifferential(t *testing.T) {
	workerCounts := []int{1, 3}
	if testing.Short() {
		workerCounts = []int{1}
	}
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testStepLockstepDifferential(t, workers)
		})
	}
}

func testStepLockstepDifferential(t *testing.T, workers int) {
	ctx := context.Background()
	_, ts := newTestServer(t, Options{StepWorkers: workers, StatmonSampleEvery: 1})
	paper := modelspec.Paper()
	gamma := modelspec.Paper()
	gamma.Marginal = &modelspec.MarginalSpec{Kind: "gamma", Shape: 4, Scale: 4000}
	fgn := modelspec.Spec{ACF: modelspec.ACFSpec{Kind: modelspec.ACFFGN, H: 0.8}}
	at := func(s modelspec.Spec, seed uint64) *modelspec.Spec { s.Seed = seed; return &s }
	plain := []struct {
		spec *modelspec.Spec
		read int // frames read before the first step
	}{
		{at(paper, 1), 0},
		{at(gamma, 2), 700},
		{at(paper, 3), 100},
		{at(paper, 4), 362},
		{at(blockPaperSpec(0), 5), 100},
		{at(fgn, 6), 700},
		{at(fgn, 7), 0},
		{at(fgn, 8), 100},
		{at(fgn, 9), 1500},
		{at(tesTestSpec(0), 10), 0},
		{nil, 50}, // the trunk
		{at(paper, 12), 700},
		{at(paper, 13), 1500},
		{at(gamma, 14), 0},
		{at(paper, 15), 3000},
		{at(fgn, 16), 2000},
	}
	fleet := make([]*stepFleetSession, len(plain))
	ids := make([]string, len(plain))
	for i, p := range plain {
		fs := &stepFleetSession{spec: p.spec}
		if p.spec == nil {
			spec := testTrunkSpec(7)
			fs.id = createTrunk(t, ts.URL, spec).ID
			tr, err := trunk.Open(ctx, &spec, trunk.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tr.Close)
			fs.twin = tr
		} else {
			fs.id = createStream(t, ts.URL, *p.spec).ID
			st, err := p.spec.OpenCtx(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(st.Close)
			fs.twin = st
		}
		if p.read > 0 {
			readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=%d", ts.URL, fs.id, p.read))
			fs.twin.Fill(make([]float64, p.read))
			fs.pos = p.read
		}
		fleet[i], ids[i] = fs, fs.id
	}

	for _, n := range []int{1, 255, 1024, 1025, 3000} {
		for _, include := range []bool{false, true} {
			resp := postJSON(t, ts.URL+"/v1/streams/step", StepRequest{IDs: ids, N: n, IncludeFrames: include})
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("step n=%d: %d %s", n, resp.StatusCode, body)
			}
			results := decodeJSON[[]StepResult](t, resp)
			want := make([]float64, n)
			for i, fs := range fleet {
				res := results[i]
				if res.ID != fs.id || res.Gone || res.Start != fs.pos || res.Pos != fs.pos+n {
					t.Fatalf("n=%d include=%v session %s: %s %d→%d gone=%v, want %d→%d",
						n, include, fs.id, res.ID, res.Start, res.Pos, res.Gone, fs.pos, fs.pos+n)
				}
				fs.twin.Fill(want)
				if include {
					if len(res.Frames) != n {
						t.Fatalf("n=%d session %s: %d frames", n, fs.id, len(res.Frames))
					}
					for j := range want {
						if math.Float64bits(res.Frames[j]) != math.Float64bits(want[j]) {
							t.Fatalf("n=%d session %s frame %d: %v, want %v", n, fs.id, fs.pos+j, res.Frames[j], want[j])
						}
					}
				} else if res.Frames != nil {
					t.Fatalf("n=%d session %s carries frames without include_frames", n, fs.id)
				}
				fs.pos += n
			}
		}
	}
	// The discard rounds moved the sessions exactly as far: each plain
	// session's next frames are the offline reference at its position.
	for _, fs := range fleet {
		if fs.spec == nil {
			continue
		}
		want, err := fs.spec.Frames(ctx, fs.pos, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=16", ts.URL, fs.id))
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("session %s frame %d after the steps: %v, want %v", fs.id, fs.pos+j, got[j], want[j])
			}
		}
	}
}

// TestStreamStepBusySessionSteppedLast holds one session's lock while a
// step runs over it: the worker must step the sessions around it (their
// TryLock partner failed) without waiting, and step the held session once
// it is released, bit-identically.
func TestStreamStepBusySessionSteppedLast(t *testing.T) {
	s, ts := newTestServer(t, Options{StepWorkers: 1})
	const n = 400
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = createStream(t, ts.URL, paperSpec(uint64(70+i))).ID
	}
	held, ok := s.reg.get(ids[2])
	if !ok {
		t.Fatal("session vanished")
	}
	held.mu.Lock()
	done := make(chan []StepResult, 1)
	go func() {
		resp := postJSONNoFatal(ts.URL+"/v1/streams/step", StepRequest{IDs: ids, N: n, IncludeFrames: true})
		if resp == nil || resp.StatusCode != http.StatusOK {
			done <- nil
			return
		}
		var res []StepResult
		json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		done <- res
	}()
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range slices.Concat(ids[:2], ids[3:]) {
		for {
			ss, _ := s.reg.get(id)
			info, _ := ss.info()
			if info.Pos == n {
				break
			}
			if time.Now().After(deadline) {
				held.mu.Unlock()
				t.Fatalf("session %s at %d while %s is held: the step waited on a busy session", id, info.Pos, ids[2])
			}
			time.Sleep(time.Millisecond)
		}
	}
	held.mu.Unlock()
	results := <-done
	if len(results) != len(ids) {
		t.Fatalf("step results: %+v", results)
	}
	for i, res := range results {
		spec := paperSpec(uint64(70 + i))
		want, err := spec.Frames(context.Background(), 0, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != ids[i] || res.Start != 0 || res.Pos != n || len(res.Frames) != n {
			t.Fatalf("result %d: %s %d→%d with %d frames", i, res.ID, res.Start, res.Pos, len(res.Frames))
		}
		for j := range want {
			if math.Float64bits(res.Frames[j]) != math.Float64bits(want[j]) {
				t.Fatalf("session %s frame %d: %v, want %v", res.ID, j, res.Frames[j], want[j])
			}
		}
	}
}

// TestStreamStepNoDeadlock has 4 goroutines step overlapping session sets
// listed in opposite orders, alongside frames reads and deletes. Every
// request must finish within the deadline, and every step result must
// either advance its session by exactly n or report it gone.
func TestStreamStepNoDeadlock(t *testing.T) {
	// No httptest server and no Close until the requests finish: a
	// deadlocked step would hang them, and the test must fail, not wait.
	s := New(Options{StepWorkers: 2})
	const (
		sessions = 16
		n        = 64
	)
	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	serveRec := func(method, path string, body any) *httptest.ResponseRecorder {
		var r io.Reader = http.NoBody
		if body != nil {
			data, _ := json.Marshal(body)
			r = bytes.NewReader(data)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, r))
		return rec
	}
	ids := make([]string, sessions)
	for i := range ids {
		spec := paperSpec(uint64(300 + i))
		if i%5 == 4 {
			spec = blockPaperSpec(uint64(300 + i))
		}
		rec := serveRec("POST", "/v1/streams", spec)
		var info SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); rec.Code != http.StatusCreated || err != nil {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
		ids[i] = info.ID
	}
	serve := func(method, path string, body any) int {
		rec := serveRec(method, path, body)
		if method == "POST" && rec.Code == http.StatusOK {
			var res []StepResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				return -1
			}
			for _, x := range res {
				if !x.Gone && x.Pos-x.Start != n {
					return -2
				}
			}
		}
		return rec.Code
	}
	errs := make(chan error, 8)
	var (
		wg      sync.WaitGroup
		stepped atomic.Int64 // step requests answered
		deleted sync.Map     // ids the deleter is about to delete
	)
	for g := range 4 {
		set := slices.Clone(ids[g*2 : g*2+10])
		if g%2 == 1 {
			slices.Reverse(set)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				// Leave out sessions already being deleted, so the steps
				// keep racing the deletes instead of answering 404.
				live := slices.DeleteFunc(slices.Clone(set), func(id string) bool { _, gone := deleted.Load(id); return gone })
				if code := serve("POST", "/v1/streams/step", StepRequest{IDs: live, N: n}); code != http.StatusOK && code != http.StatusNotFound {
					errs <- fmt.Errorf("step %v: %d", live, code)
					stepped.Add(int64(rounds)) // release the deleter
					return
				}
				stepped.Add(1)
			}
		}()
	}
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		for i := range 4 * rounds {
			if code := serve("GET", "/v1/streams/"+ids[(i*7)%sessions]+"/frames?n=32", nil); code != http.StatusOK && code != http.StatusNotFound {
				errs <- fmt.Errorf("frames: %d", code)
				return
			}
		}
	}()
	go func() { // deleter: one delete a quarter, a half and three quarters in
		defer wg.Done()
		for k, id := range []string{ids[3], ids[9], ids[15]} {
			for stepped.Load() < int64((k+1)*rounds) {
				time.Sleep(100 * time.Microsecond)
			}
			deleted.Store(id, true)
			if code := serve("DELETE", "/v1/streams/"+id, nil); code != http.StatusNoContent {
				errs <- fmt.Errorf("delete %s: %d", id, code)
				return
			}
		}
	}()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
		s.Close()
	case <-time.After(2 * time.Minute):
		t.Fatal("steps, reads and deletes did not finish: deadlock")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
