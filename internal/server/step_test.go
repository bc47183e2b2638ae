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
)

func blockPaperSpec(seed uint64) modelspec.Spec {
	s := modelspec.Paper()
	s.Seed = seed
	s.Engine = modelspec.EngineBlock
	return s
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
