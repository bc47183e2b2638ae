package client

import (
	"context"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/server"
	"vbrsim/internal/trunk"
)

func newTestClient(t *testing.T) *Client {
	t.Helper()
	s := server.New(server.Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return New(ts.URL)
}

// clientTrunkSpec mixes the block engine with the GOP and TES simulators.
func clientTrunkSpec(seed uint64) modelspec.TrunkSpec {
	paper := modelspec.Paper()
	return modelspec.TrunkSpec{
		Seed: seed,
		Components: []modelspec.TrunkComponent{
			{Count: 2, Spec: modelspec.Spec{ACF: paper.ACF, Engine: modelspec.EngineBlock}},
			{Spec: modelspec.Spec{Engine: modelspec.EngineGOP, GOP: &modelspec.GOPSpec{}}},
			{Weight: 0.5, Spec: modelspec.Spec{Engine: modelspec.EngineTES, TES: &modelspec.TESSpec{Alpha: 0.3}}},
		},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
}

// TestClientTrunkRoundTrip drives the full trunk-session client surface —
// create, binary frame reads, batched step, seek replay, close — and pins
// every returned frame against offline trunk generation.
func TestClientTrunkRoundTrip(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	spec := clientTrunkSpec(2026)

	info, err := c.CreateTrunk(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "trunk" || info.Sources != 4 || info.Seed != 2026 {
		t.Fatalf("trunk info: %+v", info)
	}

	offline, err := trunk.Open(ctx, &spec, trunk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer offline.Close()
	want := make([]float64, 800)
	offline.Fill(want)

	// Binary frame read from position 0.
	got, err := c.Frames(ctx, info.ID, -1, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: client %v, offline %v", i, got[i], want[i])
		}
	}

	// Batched step with frames included continues exactly where the read
	// stopped.
	results, err := c.Step(ctx, []string{info.ID}, 200, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Start != 300 || results[0].Pos != 500 {
		t.Fatalf("step results: %+v", results)
	}
	for i, v := range results[0].Frames {
		if math.Float64bits(v) != math.Float64bits(want[300+i]) {
			t.Fatalf("stepped frame %d: %v, want %v", 300+i, v, want[300+i])
		}
	}

	// Seek replay: an explicit from= lands bit-exactly on the offline path.
	replay, err := c.Frames(ctx, info.ID, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	for i := range replay {
		if math.Float64bits(replay[i]) != math.Float64bits(want[100+i]) {
			t.Fatalf("replayed frame %d: %v, want %v", 100+i, replay[i], want[100+i])
		}
	}

	// Session state reflects the replay position; close removes it.
	state, err := c.Stream(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if state.Pos != 250 || state.Kind != "trunk" {
		t.Fatalf("state after replay: %+v", state)
	}
	if err := c.CloseStream(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(ctx, info.ID); err == nil {
		t.Fatal("stream still readable after close")
	}
}

// TestClientStepPositionsOnly checks the frame-free step variant advances
// plain stream sessions without returning bodies.
func TestClientStepPositionsOnly(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	spec := modelspec.Paper()
	spec.Seed = 7
	spec.Engine = modelspec.EngineBlock
	info, err := c.CreateStream(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Step(ctx, []string{info.ID}, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Pos != 1000 || results[0].Frames != nil {
		t.Fatalf("step results: %+v", results)
	}
}

// TestClientStepReusesConnection checks JSON calls leave the response body
// at EOF, so net/http keeps the connection alive: 50 sequential steps must
// ride a single TCP connection instead of redialing each time.
func TestClientStepReusesConnection(t *testing.T) {
	s := server.New(server.Options{})
	// Step responses go out in two flushed writes, the encoder's trailing
	// newline a moment after the JSON value: the decoder finishes before
	// the body ends, the case that redials unless the client drains to
	// EOF.
	split := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/streams/step" {
			s.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		w.WriteHeader(rec.Code)
		w.Write(body[:len(body)-1])
		w.(http.Flusher).Flush()
		time.Sleep(time.Millisecond)
		w.Write(body[len(body)-1:])
	})
	ts := httptest.NewUnstartedServer(split)
	var conns atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := New(ts.URL)
	c.HTTP = ts.Client()
	ctx := context.Background()
	spec := modelspec.Paper()
	spec.Seed = 9
	info, err := c.CreateStream(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Step(ctx, []string{info.ID}, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("create + 50 steps opened %d connections, want 1", got)
	}
}

// TestClientFramesReusesConnection checks Frames reads the body to EOF
// after the trailer record, so net/http keeps the connection alive: 50
// sequential reads must ride a single TCP connection. The frames handler
// flushes its trailer a moment before it returns, so the chunked body's
// final chunk arrives after the trailer, the case that redials unless the
// client drains.
func TestClientFramesReusesConnection(t *testing.T) {
	s := server.New(server.Options{})
	late := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/frames") {
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		}
	})
	ts := httptest.NewUnstartedServer(late)
	var conns atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := New(ts.URL)
	c.HTTP = ts.Client()
	ctx := context.Background()
	spec := modelspec.Paper()
	spec.Seed = 9
	info, err := c.CreateStream(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Frames(ctx, info.ID, -1, 16); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("create + 50 frame reads opened %d connections, want 1", got)
	}
}

// TestClientStatusAndSessionStats drives the observability surface end to
// end: a monitored stream stepped past statmon's minimum sample count must
// show up in both the per-session stats call and the fleet status rollup.
func TestClientStatusAndSessionStats(t *testing.T) {
	s := server.New(server.Options{StatmonSampleEvery: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := New(ts.URL)
	ctx := context.Background()

	// An FGN stream with a lognormal marginal: long-range dependent enough
	// to exercise the monitor, short-memory enough that 2^17 served frames
	// conform to the spec's own analytic reference.
	spec := modelspec.Spec{
		ACF:      modelspec.ACFSpec{Kind: modelspec.ACFFGN, H: 0.75},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
		H:        0.75,
		Seed:     11,
		Engine:   modelspec.EngineBlock,
	}
	info, err := c.CreateStream(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 17
	if _, err := c.Step(ctx, []string{info.ID}, n, false); err != nil {
		t.Fatal(err)
	}

	stats, err := c.SessionStats(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ID != info.ID || !stats.Monitored || stats.Stats == nil {
		t.Fatalf("session stats: %+v", stats)
	}
	if stats.Stats.Frames != n {
		t.Fatalf("frames observed = %d, want %d", stats.Stats.Frames, n)
	}
	if stats.Stats.Mean <= 0 || stats.Stats.Variance <= 0 {
		t.Fatalf("degenerate moments: %+v", stats.Stats)
	}
	if stats.Stats.Drifting {
		t.Fatalf("conforming stream reported drifting: %+v", stats.Stats)
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.Draining {
		t.Fatalf("status: %+v", st)
	}
	if st.Statmon.Monitored != 1 || st.Statmon.Drifting != 0 {
		t.Fatalf("statmon rollup: %+v", st.Statmon)
	}

	if _, err := c.SessionStats(ctx, "s404"); err == nil {
		t.Fatal("stats for unknown session succeeded")
	}
}

// TestClientTrunkErrors exercises the trunk error paths end to end: the
// server's 400s surface as descriptive client errors.
func TestClientTrunkErrors(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	badEngine := clientTrunkSpec(1)
	badEngine.Components[0].Spec.Engine = "warp-drive"
	if _, err := c.CreateTrunk(ctx, &badEngine); err == nil ||
		!strings.Contains(err.Error(), "engine") {
		t.Fatalf("unknown backend error = %v", err)
	}

	zero := modelspec.TrunkSpec{}
	if _, err := c.CreateTrunk(ctx, &zero); err == nil ||
		!strings.Contains(err.Error(), "zero sources") {
		t.Fatalf("zero-sources error = %v", err)
	}

	if _, err := c.Step(ctx, []string{"s999"}, 10, false); err == nil {
		t.Fatal("step of unknown session succeeded")
	}
}
