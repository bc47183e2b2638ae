package main

import (
	"fmt"
	"time"

	"vbrsim/internal/modelspec"
)

// openLoopRate is stream-short's open-loop arrival rate in requests per
// second: about a quarter of the closed-loop capacity calibrated on the
// reference host (2 vCPU, 30k to 40k req/s), so that the latencies are read
// off a server that is busy but not saturated. At half the capacity the
// host's own speed drift (±20% between minutes) swung the queueing tail so
// far that p99 spread by half its value from run to run. The rate is fixed
// here and never scaled at run time: a slower commit then shows as longer
// latencies at the same offered load.
const openLoopRate = 8000

// churnSeekSpan bounds session-churn's random read positions (from= below
// 2^20), so every read lands in one of ~130 blocks of the block engine and
// costs an O(1) seek of two block refills.
const churnSeekSpan = 1 << 20

// verifySample is how many responses each run regenerates offline, on top
// of the last response of every long-lived session.
const verifySample = 256

// workload is one traffic mix. All of them drive the same server through
// client.Client over loopback with at most GOMAXPROCS connections.
type workload struct {
	name     string
	sessions int // fleet opened at set-up
	frames   int // frames per read; per session per round on step-fleet
	spec     func(seed uint64) modelspec.Spec
	measure  func(r *run, f *fleet) (*measurement, error)

	// The request the ladder decomposes: a sequential frames read, a read
	// at a random from= (seekReads), or a step round (stepRounds).
	seekReads  bool
	stepRounds bool
	ladderReps int // requests per ladder batch
	createReps int // creates (and deletes, opens) per ladder batch
}

// measurement is what a workload's windows produced.
type measurement struct {
	windows  []*window
	rate     *window  // the closed-loop window frames_per_s comes from
	latency  *window  // the window the latency percentiles come from
	extra    []metric // workload-specific lines (sessions_per_s)
	verify   func() verdict
	endpoint []string // endpoint labels of the workload's requests on /metrics
}

var (
	paperSpec = modelspec.Paper()

	// 64 block-engine sessions read 4096 frames per request: synthesis,
	// LUT, statmon tap, encode and decode dominate.
	streamLong = &workload{
		name:       "stream-long",
		sessions:   64,
		frames:     4096,
		spec:       paperWith(modelspec.EngineBlock),
		measure:    measureStreamLong,
		ladderReps: 64,
		createReps: 4,
	}
	// 10000 TES sessions read 4 frames per request, closed loop then open
	// loop at a fixed rate: registry, lock, HTTP and client dominate.
	streamShort = &workload{
		name:       "stream-short",
		sessions:   10000,
		frames:     4,
		spec:       tesSpec,
		measure:    measureStreamShort,
		ladderReps: 512,
		createReps: 64,
	}
	// One client steps 256 truncated-engine sessions by 256 frames per
	// round: AR recursion, rng, exact transform and step fan-out dominate.
	stepFleet = &workload{
		name:       "step-fleet",
		sessions:   256,
		frames:     256,
		spec:       paperWith(""),
		measure:    measureStepFleet,
		stepRounds: true,
		ladderReps: 2,
		createReps: 4,
	}
	// Cycles of create, 4 reads of 256 frames at random positions, delete:
	// session open, O(1) block seek and admission dominate.
	sessionChurn = &workload{
		name:       "session-churn",
		sessions:   1, // idle; opening it at set-up warms the plan cache the cycles create against
		frames:     256,
		spec:       paperWith(modelspec.EngineBlock),
		measure:    measureSessionChurn,
		seekReads:  true,
		ladderReps: 16,
		createReps: 4,
	}

	workloads = []*workload{streamLong, streamShort, stepFleet, sessionChurn}
)

// paperWith returns the paper model on the given engine.
func paperWith(engine string) func(uint64) modelspec.Spec {
	return func(seed uint64) modelspec.Spec {
		s := paperSpec
		s.Seed = seed
		s.Engine = engine
		return s
	}
}

// tesSpec is the cheapest session the server admits: a TES process mapped
// through the paper's lognormal marginal, so synthesis is nearly free and
// the request path is what a read costs.
func tesSpec(seed uint64) modelspec.Spec {
	return modelspec.Spec{
		Engine:   modelspec.EngineTES,
		Seed:     seed,
		TES:      &modelspec.TESSpec{Alpha: 0.3},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
}

// owned splits the fleet between connections: connection g reads sessions
// g, g+conns, ... in turn.
func owned(sessions, conns int) [][]int {
	out := make([][]int, conns)
	for i := 0; i < sessions; i++ {
		out[i%conns] = append(out[i%conns], i)
	}
	return out
}

func concat(parts [][]record) []record {
	var out []record
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// readLoop is the closed-loop body of the streaming workloads: connection g
// reads its sessions round-robin, continuing each from where it stopped,
// and keeps a record of every response.
func readLoop(r *run, f *fleet, length time.Duration, recs [][]record) *window {
	n := r.w.frames
	own := owned(len(f.ids), len(f.conns))
	return runLoop(len(f.conns), length, func(g int, w *worker) error {
		i := own[g][w.attempted%len(own[g])]
		cn := f.conns[g]
		return w.timed(time.Now(), float64(n), func() error {
			fr, err := cn.c.Frames(r.ctx, f.ids[i], -1, n)
			if err != nil {
				return err
			}
			recs[g] = append(recs[g], record{session: i, seed: r.seeds[i], start: cn.start, hash: frameHash(fr)})
			return nil
		})
	})
}

// verifyStreams checks a streaming workload's responses: every session's
// reads are contiguous, and a seeded sample plus each session's last
// response match offline generation.
func verifyStreams(r *run, recs [][]record) func() verdict {
	return func() verdict {
		all := concat(recs)
		v := checkContiguous(all, r.w.sessions, r.w.frames)
		idx := verificationSample(r.seed, all, verifySample, true)
		v.add(regenerate(r.ctx, r.w.spec, r.w.frames, all, idx))
		return v
	}
}

func measureStreamLong(r *run, f *fleet) (*measurement, error) {
	recs := make([][]record, len(f.conns))
	wd := readLoop(r, f, r.window, recs)
	return &measurement{
		windows:  []*window{wd},
		rate:     wd,
		latency:  wd,
		verify:   verifyStreams(r, recs),
		endpoint: []string{`endpoint="frames"`},
	}, nil
}

// measureStreamShort runs two phases: a closed loop over the first half of
// the window gives the rate, then an open loop at openLoopRate over the
// rest gives the latencies. Both phases read sessions sequentially, so each
// session's responses stay one contiguous run. From 2 s up, the closed
// phase gets whole seconds, since its rate is a quantile of 1-s slices.
func measureStreamShort(r *run, f *fleet) (*measurement, error) {
	recs := make([][]record, len(f.conns))
	closed := r.window / 2
	if r.window >= 2*time.Second {
		closed = closed.Round(time.Second)
	}
	wdA := readLoop(r, f, closed, recs)

	n := r.w.frames
	sched := poissonSchedule(r.seed, openLoopRate, r.window-closed, len(f.ids))
	wdB := openLoop(len(f.conns), sched, func(g int, a arrival) error {
		cn := f.conns[g]
		fr, err := cn.c.Frames(r.ctx, f.ids[a.session], -1, n)
		if err != nil {
			return err
		}
		recs[g] = append(recs[g], record{session: a.session, seed: r.seeds[a.session], start: cn.start, hash: frameHash(fr)})
		return nil
	})
	return &measurement{
		windows:  []*window{wdA, wdB},
		rate:     wdA,
		latency:  wdB,
		verify:   verifyStreams(r, recs),
		endpoint: []string{`endpoint="frames"`},
	}, nil
}

// stepSample is how many step-fleet sessions have 64 frames at their final
// position read back and regenerated offline.
const stepSample = 8

// measureStepFleet has one client advance the whole fleet per round through
// POST /v1/streams/step, checking that every session moved by exactly n
// frames from where the previous round left it.
func measureStepFleet(r *run, f *fleet) (*measurement, error) {
	n := r.w.frames
	pos := make([]int, len(f.ids))
	cn := f.conns[0]
	wd := runLoop(1, r.window, func(_ int, w *worker) error {
		return w.timed(time.Now(), float64(len(f.ids)*n), func() error {
			res, err := cn.c.Step(r.ctx, f.ids, n, false)
			if err != nil {
				return err
			}
			if len(res) != len(f.ids) {
				return fmt.Errorf("step returned %d results for %d sessions", len(res), len(f.ids))
			}
			for i, x := range res {
				if x.Gone || x.ID != f.ids[i] || x.Start != pos[i] || x.Pos != pos[i]+n {
					return fmt.Errorf("step: session %s went %d→%d (gone=%v), want %d→%d", x.ID, x.Start, x.Pos, x.Gone, pos[i], pos[i]+n)
				}
				pos[i] = x.Pos
			}
			return nil
		})
	})
	verify := func() verdict {
		var v verdict
		infos, err := cn.c.Streams(r.ctx)
		v.checked++
		if err != nil {
			v.fail("list sessions: %v", err)
			return v
		}
		at := map[string]int{}
		for _, info := range infos {
			at[info.ID] = info.Pos
		}
		for i, id := range f.ids {
			v.checked++
			if got, ok := at[id]; !ok || got != pos[i] {
				v.fail("session %s is at %d, want %d", id, got, pos[i])
			}
		}
		// Read 64 frames at the final position of a seeded sample of
		// sessions and regenerate them offline.
		const tail = 64
		g := inputStream(r.seed, "step-sample")
		var recs []record
		for k := 0; k < stepSample; k++ {
			i := g.intn(len(f.ids))
			fr, err := cn.c.Frames(r.ctx, f.ids[i], -1, tail)
			v.checked++
			if err != nil {
				v.fail("read session %s: %v", f.ids[i], err)
				continue
			}
			if cn.start != pos[i] {
				v.fail("session %s served from %d, want %d", f.ids[i], cn.start, pos[i])
			}
			pos[i] += tail
			recs = append(recs, record{session: i, seed: r.seeds[i], start: cn.start, hash: frameHash(fr)})
		}
		idx := make([]int, len(recs))
		for k := range idx {
			idx[k] = k
		}
		v.add(regenerate(r.ctx, r.w.spec, tail, recs, idx))
		return v
	}
	return &measurement{
		windows:  []*window{wd},
		rate:     wd,
		latency:  wd,
		verify:   verify,
		endpoint: []string{`endpoint="step"`},
	}, nil
}

// churnReads is how many reads a session-churn cycle makes per session.
const churnReads = 4

// measureSessionChurn has each connection loop over session lifecycles:
// create, churnReads reads at seeded random positions, delete. Every read
// must be served from exactly the requested position.
func measureSessionChurn(r *run, f *fleet) (*measurement, error) {
	n := r.w.frames
	recs := make([][]record, len(f.conns))
	gens := make([]*splitmix, len(f.conns))
	cycles := make([]*slicer, len(f.conns))
	begin := time.Now()
	for g := range gens {
		gens[g] = inputStream(r.seed, fmt.Sprintf("churn-%d", g))
		cycles[g] = newSlicer(begin, r.window)
	}
	wd := runLoop(len(f.conns), r.window, func(g int, w *worker) error {
		cn, gen := f.conns[g], gens[g]
		cycleStart := time.Now()
		seed := gen.seed()
		spec := r.w.spec(seed)
		var id string
		if err := w.timed(time.Now(), 0, func() error {
			info, err := cn.c.CreateStream(r.ctx, &spec)
			id = info.ID
			return err
		}); err != nil {
			return err
		}
		for k := 0; k < churnReads; k++ {
			from := gen.intn(churnSeekSpan - n)
			if err := w.timed(time.Now(), float64(n), func() error {
				fr, err := cn.c.Frames(r.ctx, id, from, n)
				if err != nil {
					return err
				}
				if cn.start != from {
					return fmt.Errorf("session %s served from %d, want %d", id, cn.start, from)
				}
				recs[g] = append(recs[g], record{session: len(recs[g]) / churnReads, seed: seed, start: from, hash: frameHash(fr)})
				return nil
			}); err != nil {
				return err
			}
		}
		if err := w.timed(time.Now(), 0, func() error { return cn.c.CloseStream(r.ctx, id) }); err != nil {
			return err
		}
		cycles[g].add(cycleStart, time.Now(), 1)
		return nil
	})
	for _, c := range cycles[1:] {
		cycles[0].merge(c)
	}
	return &measurement{
		windows: []*window{wd},
		rate:    wd,
		latency: wd,
		extra:   []metric{{Name: "sessions_per_s", Value: cycles[0].rate(), Unit: "cycles/s"}},
		verify: func() verdict {
			all := concat(recs)
			return regenerate(r.ctx, r.w.spec, n, all, verificationSample(r.seed, all, verifySample, false))
		},
		endpoint: []string{`endpoint="stream_create"`, `endpoint="frames"`, `endpoint="stream_delete"`},
	}, nil
}
