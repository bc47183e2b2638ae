package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSessionRetainedBytes gates the heap one monitored TES session keeps:
// the exact HeapAlloc delta over sessions created through ServeHTTP, per
// session, each side taken after two GCs. It reads the delta twice: after
// the creates, and again after one read per session, which statmon observes
// (StatmonSampleEvery 1), so a monitor that deferred its state to the first
// observed chunk would fail the second reading. A TES session is the
// cheapest the server admits, so its monitor is most of its bytes: a
// session retains about 2 830 B (375 B with statmon off), down from
// 4 860 B when each monitor held its own copy of the configuration and
// reference and a 28-level variance-time ladder. The bound counts bytes, not time, so it holds on
// any host.
func TestSessionRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap deltas")
	}
	const (
		sessions = 2000
		limit    = 3 << 10
	)
	s := New(Options{MaxSessions: sessions, StatmonSampleEvery: 1})
	defer s.Close()
	body, err := json.Marshal(tesTestSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	serve := func(method, url string, body []byte, want int) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d, want %d: %s", method, url, rec.Code, want, rec.Body)
		}
	}
	check := func(when string, retained int64) {
		per := retained / sessions
		if per >= limit {
			t.Errorf("%s: a monitored TES session retains %d B, want < %d B", when, per, limit)
		}
		t.Logf("%s: a monitored TES session retains %d B", when, per)
	}

	before := heap()
	for range sessions {
		serve("POST", "/v1/streams", body, http.StatusCreated)
	}
	check("at open", heap()-before)
	// Session IDs count up from s1 on a fresh server.
	for i := 1; i <= sessions; i++ {
		serve("GET", fmt.Sprintf("/v1/streams/s%d/frames?n=4", i), nil, http.StatusOK)
	}
	check("after one observed chunk", heap()-before)
	if got := s.foldFleet().Statmon.Monitored; got != sessions {
		t.Fatalf("%d sessions monitored, want %d", got, sessions)
	}
	runtime.KeepAlive(s)
}

// TestBlockSessionRetainedBytes gates the heap one block-engine session
// keeps between requests: the exact HeapAlloc delta per paper-spec block
// session over sessions created through ServeHTTP at trafficd's defaults,
// each side taken after two GCs, once after the creates and again after one
// 4096-frame read each. A warm session opened first keeps the spec's shared
// state (truncation, engine, LUT, statmon reference) out of the delta. A
// session keeps its raw block (64 KiB) and history; the refill scratch (the
// Davies-Harte spectrum buffers and the stitch's FFT pads, 379 752 B) is
// lent by the engine per refill, so neither reading counts it per session.
// Owning it put 198 293 B at open and 468 630 B after the first read; with
// it lent, both readings are about 71 200 B. The bound counts bytes, not
// time, so it holds on any host.
func TestBlockSessionRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap deltas")
	}
	const (
		sessions = 64
		limit    = 96 << 10
	)
	s := New(Options{MaxSessions: sessions + 1})
	defer s.Close()
	serve := func(method, url string, body []byte, want int) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d, want %d: %s", method, url, rec.Code, want, rec.Body)
		}
	}
	spec := func(seed uint64) []byte {
		body, err := json.Marshal(blockPaperSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	check := func(when string, retained int64) {
		per := retained / sessions
		if per >= limit {
			t.Errorf("%s: a block session retains %d B, want < %d B", when, per, limit)
		}
		t.Logf("%s: a block session retains %d B", when, per)
	}
	bodies := make([][]byte, sessions)
	for i := range bodies {
		bodies[i] = spec(uint64(i + 2))
	}

	// Session s1 warms the spec's shared state and the engine's lent
	// scratch; the measured sessions are s2 .. s65.
	serve("POST", "/v1/streams", spec(1), http.StatusCreated)
	serve("GET", "/v1/streams/s1/frames?n=4096", nil, http.StatusOK)
	before := heap()
	for _, body := range bodies {
		serve("POST", "/v1/streams", body, http.StatusCreated)
	}
	check("at open", heap()-before)
	for i := 2; i <= sessions+1; i++ {
		serve("GET", fmt.Sprintf("/v1/streams/s%d/frames?n=4096", i), nil, http.StatusOK)
	}
	check("after one read", heap()-before)
	runtime.KeepAlive(s)
}

// TestChurnCycleAllocatedBytes gates the garbage one session-churn cycle
// makes: the exact TotalAlloc per cycle through ServeHTTP, where a cycle
// creates a paper-spec block session, reads 256 frames at four from
// positions (each a seek: up to two block refills) and deletes it. An idle
// session keeps the spec's shared state warm, as in the benchmark's
// session-churn workload. A cycle allocates the session's raw block and
// history and the request plumbing; refill scratch comes from the engine's
// free list: about 141 000 B a cycle, down from 538 246 B with scratch
// owned per session. The bound counts bytes, so it holds on any host.
func TestChurnCycleAllocatedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations distort TotalAlloc")
	}
	const (
		cycles = 40
		span   = 1<<20 - 256
		limit  = 192 << 10
	)
	s := New(Options{})
	defer s.Close()
	serve := func(method, url string, body []byte, want int) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d, want %d: %s", method, url, rec.Code, want, rec.Body)
		}
	}
	body, err := json.Marshal(blockPaperSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	// Session IDs count up from s1 on a fresh server; s1 stays idle.
	next := 1
	cycle := func(c int) {
		serve("POST", "/v1/streams", body, http.StatusCreated)
		next++
		for k := 0; k < 4; k++ {
			from := (c*7919 + k*262147) % span
			serve("GET", fmt.Sprintf("/v1/streams/s%d/frames?n=256&from=%d", next, from), nil, http.StatusOK)
		}
		serve("DELETE", fmt.Sprintf("/v1/streams/s%d", next), nil, http.StatusNoContent)
	}
	serve("POST", "/v1/streams", body, http.StatusCreated)
	cycle(0) // warm the engine's free list and the server's buffers
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for c := 1; c <= cycles; c++ {
		cycle(c)
	}
	runtime.ReadMemStats(&ms)
	per := (ms.TotalAlloc - before) / cycles
	if per >= limit {
		t.Errorf("a churn cycle allocates %d B, want < %d B", per, limit)
	}
	t.Logf("a churn cycle allocates %d B", per)
}
