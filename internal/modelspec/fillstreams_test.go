package modelspec

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"vbrsim/internal/cpu"
	"vbrsim/internal/hosking"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// fillFleet is a mixed fleet for FillStreams: truncated-engine streams of
// the paper ACF under two marginals (one truncation, two transforms), an
// fgn truncated stream (a second truncation), and block, tes and gop
// streams. starts[i] is where stream i sits before the fill: inside
// warm-up, at the order, or well past it.
func fillFleet() (specs []Spec, starts []int) {
	add := func(s Spec, seed uint64, start int) {
		s.Seed = seed
		specs = append(specs, s)
		starts = append(starts, start)
	}
	paper := Paper()
	gamma := Paper()
	gamma.Marginal = &MarginalSpec{Kind: "gamma", Shape: 4, Scale: 4000}
	fgn := Spec{ACF: ACFSpec{Kind: ACFFGN, H: 0.8}}
	tes := Spec{Engine: EngineTES, TES: &TESSpec{Alpha: 0.3}, Marginal: paper.Marginal}
	add(paper, 11, 0)
	add(blockSpec(0), 12, 300)
	add(paper, 13, 1000)
	add(gamma, 14, 1000)
	add(fgn, 15, 2000)
	add(paper, 16, 5000)
	add(tes, 17, 50)
	add(paper, 18, 361)
	add(gamma, 19, 4000)
	add(Spec{Engine: EngineGOP, GOP: &GOPSpec{}}, 20, 7)
	add(fgn, 21, 2500)
	add(paper, 22, 3000)
	add(gamma, 23, 700)
	return specs, starts
}

// TestFillStreamsMatchesFill fills a mixed fleet with FillStreams and a
// twin fleet stream by stream with Fill, and requires the same bits, the
// same positions, and the same frames from both afterwards.
func TestFillStreamsMatchesFill(t *testing.T) {
	specs, starts := fillFleet()
	for _, n := range []int{0, 1, 255, 1024, 1500} {
		got := make([]*Stream, len(specs))
		want := make([]*Stream, len(specs))
		out := make([][]float64, len(specs))
		for i := range specs {
			got[i], want[i] = mustOpen(t, &specs[i]), mustOpen(t, &specs[i])
			got[i].Seek(starts[i])
			want[i].Seek(starts[i])
			out[i] = make([]float64, n)
		}
		FillStreams(got, out)
		ref := make([]float64, n)
		for i, st := range want {
			st.Fill(ref)
			bitsEqual(t, specs[i].Name+" lockstep", out[i], ref, starts[i])
			if got[i].Pos() != st.Pos() {
				t.Fatalf("n %d stream %d: at %d after FillStreams, %d after Fill", n, i, got[i].Pos(), st.Pos())
			}
			after, wantAfter := make([]float64, 64), make([]float64, 64)
			got[i].Fill(after)
			st.Fill(wantAfter)
			bitsEqual(t, "after FillStreams", after, wantAfter, st.Pos()-64)
		}
	}
}

// TestFillStreamsZeroAlloc pins a warm FillStreams of one lane group at 0
// allocations: the lane arrays stay on the stack, and the arena is the
// truncation's idle one.
func TestFillStreamsZeroAlloc(t *testing.T) {
	sts := make([]*Stream, hosking.Lanes)
	out := make([][]float64, hosking.Lanes)
	for i := range sts {
		s := Paper()
		s.Seed = uint64(i + 1)
		sts[i] = mustOpen(t, &s)
		out[i] = make([]float64, 512)
	}
	FillStreams(sts, out) // past warm-up
	if a := testing.AllocsPerRun(8, func() { FillStreams(sts, out) }); a != 0 {
		t.Errorf("warm FillStreams of %d streams allocates %v/op, want 0", len(sts), a)
	}
}

// TestStepLockstepRatio prices the lanes against the serial recursion they
// replace: a FillStreams of 8 paper-model truncated streams and a Fill of
// each of 8 twins at the same seeds, 256 frames per stream past warm-up,
// alternate (which side runs first alternates too) for 11 pairs, each side
// the fastest of 3. The median lockstep/serial time ratio must stay
// <= 0.75. On a 2-vCPU Xeon it reads about 0.2-0.25 with the AVX2 lanes
// kernel, and 0.4-0.6 with the Go loop, which the test also times (and
// gates) with cpu.AVX2 forced false where the processor has AVX2. It is a
// same-process ratio, so it holds on any host where the absolute times do
// not.
func TestStepLockstepRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	const (
		streams = 8
		frames  = 256
		pairs   = 11
	)
	lanes := make([]*Stream, streams)
	twins := make([]*Stream, streams)
	out := make([][]float64, streams)
	for i := range lanes {
		s := Paper()
		s.Seed = uint64(100 + i)
		lanes[i], twins[i] = mustOpen(t, &s), mustOpen(t, &s)
		out[i] = make([]float64, frames)
	}
	fastest := func(fill func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for range 3 {
			t0 := time.Now()
			fill()
			d = min(d, time.Since(t0))
		}
		return d
	}
	fillLanes := func() time.Duration { return fastest(func() { FillStreams(lanes, out) }) }
	fillSerial := func() time.Duration {
		return fastest(func() {
			for i, st := range twins {
				st.Fill(out[i])
			}
		})
	}
	// Past warm-up on both sides (the paper order is about 361), and warm
	// the transforms and caches.
	for lanes[0].Pos() <= lanes[0].Order() {
		fillLanes()
		fillSerial()
	}
	gate := func(kernel string) {
		ratios := make([]float64, pairs)
		for p := range ratios {
			var dl, ds time.Duration
			if p%2 == 0 {
				dl, ds = fillLanes(), fillSerial()
			} else {
				ds, dl = fillSerial(), fillLanes()
			}
			ratios[p] = float64(dl) / float64(ds)
		}
		sort.Float64s(ratios)
		t.Logf("%s lanes: lockstep/serial time ratios (sorted): %.3f", kernel, ratios)
		if med := ratios[pairs/2]; med > 0.75 {
			t.Errorf("%s lanes: median lockstep/serial time ratio %.3f, want <= 0.75", kernel, med)
		}
	}
	if !cpu.AVX2 {
		gate("go")
		return
	}
	gate("avx2")
	defer func() { cpu.AVX2 = true }()
	cpu.AVX2 = false
	gate("go")
}

// BenchmarkStreamStepLockstep times one FillStreams of the 32 truncated
// step streams by 1024 frames, in ns per frame: the lockstep side of
// TestStepLockstepRatio at the StreamStepAffinity fleet size.
func BenchmarkStreamStepLockstep(b *testing.B) {
	ctx := context.Background()
	const frames = 1024
	sts := make([]*Stream, stepSessions)
	out := make([][]float64, stepSessions)
	for i := range sts {
		s := Paper()
		s.Seed = uint64(100 + i)
		st, err := s.OpenCtx(ctx, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(st.Close)
		sts[i], out[i] = st, make([]float64, frames)
	}
	FillStreams(sts, out) // past warm-up
	b.ResetTimer()
	for range b.N {
		FillStreams(sts, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stepSessions*frames), "ns/frame")
}
