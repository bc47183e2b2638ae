package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"vbrsim/internal/modelspec"
)

// fakeStream is a minimal frameStream for registry-level tests.
type fakeStream struct {
	pos    int
	closed bool
}

func (f *fakeStream) Pos() int             { return f.pos }
func (f *fakeStream) Order() int           { return 0 }
func (f *fakeStream) MaxACFError() float64 { return 0 }
func (f *fakeStream) Fill(out []float64) {
	for i := range out {
		out[i] = float64(f.pos)
		f.pos++
	}
}
func (f *fakeStream) SeekCtx(_ context.Context, pos int) error { f.pos = pos; return nil }
func (f *fakeStream) Close()                                   { f.closed = true }

func newFakeSession(id string) *session {
	ss := &session{id: id, stream: &fakeStream{}}
	ss.touch()
	return ss
}

func TestRegistryAddGetRemove(t *testing.T) {
	r := newSessionRegistry()
	const n = 50
	for i := 0; i < n; i++ {
		r.add(newFakeSession(fmt.Sprintf("s%d", i)))
	}
	if got := len(r.list()); got != n {
		t.Fatalf("list has %d sessions, want %d", got, n)
	}
	// Every session is retrievable by its ID.
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		ss, ok := r.get(id)
		if !ok || ss.id != id {
			t.Fatalf("get(%s): ok=%v ss=%v", id, ok, ss)
		}
	}
	if _, ok := r.get("nope"); ok {
		t.Fatal("get of an unknown id succeeded")
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		if _, ok := r.remove(id); !ok {
			t.Fatalf("remove(%s) failed", id)
		}
		if _, ok := r.remove(id); ok {
			t.Fatalf("second remove(%s) succeeded", id)
		}
	}
	if got := len(r.list()); got != 0 {
		t.Fatalf("%d sessions after drain, want 0", got)
	}
}

func TestRegistryGetTouchesIdleClock(t *testing.T) {
	r := newSessionRegistry()
	ss := newFakeSession("s1")
	r.add(ss)
	ss.lastTouch.Store(1) // ancient
	r.get("s1")
	if got := ss.lastTouch.Load(); got == 1 {
		t.Fatal("get did not refresh lastTouch")
	}
}

func TestEvictIdleSweep(t *testing.T) {
	r := newSessionRegistry()
	old := time.Now().Add(-time.Hour).UnixNano()
	var idle, fresh, busy *session
	idle, fresh, busy = newFakeSession("idle"), newFakeSession("fresh"), newFakeSession("busy")
	r.add(idle)
	r.add(fresh)
	r.add(busy)
	idle.lastTouch.Store(old)
	busy.lastTouch.Store(old)
	busy.mu.Lock() // an in-flight request holds the session
	defer busy.mu.Unlock()

	var evicted []*session
	n := r.evictIdle(time.Now().Add(-time.Minute), func(ss *session) { evicted = append(evicted, ss) })
	if n != 1 || len(evicted) != 1 || evicted[0] != idle {
		t.Fatalf("evicted %d sessions (%v), want exactly the idle one", n, evicted)
	}
	if !idle.closed || !idle.stream.(*fakeStream).closed {
		t.Fatal("evicted session was not closed")
	}
	if fresh.closed || busy.closed {
		t.Fatal("fresh or busy session was closed")
	}
	if _, ok := r.get("idle"); ok {
		t.Fatal("evicted session still in the registry")
	}
	if _, ok := r.get("busy"); !ok {
		t.Fatal("busy session lost")
	}
	if got := len(r.list()); got != 2 {
		t.Fatalf("%d sessions, want 2", got)
	}

	// A session touched between the scan and the lock survives: the
	// re-check under ss.mu sees the fresh clock.
	fresh.lastTouch.Store(old)
	fresh.touch() // simulates get() winning the race just before the sweep
	if n := r.evictIdle(time.Now().Add(-time.Minute), nil); n != 0 {
		t.Fatalf("sweep evicted %d recently touched sessions", n)
	}
}

// TestServerEvictsIdleSessions drives eviction through the full server: an
// untouched session is swept out (404 afterwards, eviction metrics, cost
// returned), while a busy or touched one survives.
func TestServerEvictsIdleSessions(t *testing.T) {
	s, ts := newTestServer(t, Options{IdleTimeout: time.Hour})

	tes := tesTestSpec(7)
	victim := createStream(t, ts.URL, tes)
	keeper := createStream(t, ts.URL, tes)
	if used := s.adm.usedCost(); used != 2*tes.Cost() {
		t.Fatalf("used cost = %v, want %v", used, 2*tes.Cost())
	}

	// Rewind only the victim's idle clock; the keeper stays fresh.
	vss, ok := s.reg.get(victim.ID)
	if !ok {
		t.Fatal("victim not in registry")
	}
	vss.lastTouch.Store(time.Now().Add(-2 * time.Hour).UnixNano())
	if n := s.evictIdleOnce(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}

	resp, err := http.Get(ts.URL + "/v1/streams/" + victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session GET: %d, want 404", resp.StatusCode)
	}
	if _, ok := s.reg.get(keeper.ID); !ok {
		t.Fatal("keeper evicted")
	}
	if used := s.adm.usedCost(); used != tes.Cost() {
		t.Fatalf("used cost after eviction = %v, want %v", used, tes.Cost())
	}
	// Deleting the evicted session is a 404, not a double-close.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/streams/"+victim.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete after eviction: %d, want 404", resp.StatusCode)
	}
	scrape := scrapeMetrics(t, ts.URL)
	if !bytes.Contains(scrape, []byte("vbrsim_server_evictions_total 1")) {
		t.Fatal("evictions counter not incremented")
	}
}

// tesTestSpec is the cheapest valid session spec (cost 1 unit).
func tesTestSpec(seed uint64) modelspec.Spec {
	return modelspec.Spec{
		Engine:   modelspec.EngineTES,
		Seed:     seed,
		TES:      &modelspec.TESSpec{Alpha: 0.3},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
}

func scrapeMetrics(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
