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
