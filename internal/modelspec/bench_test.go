package modelspec

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"vbrsim/internal/daviesharte"
	"vbrsim/internal/par"
	"vbrsim/internal/rng"
	"vbrsim/internal/streamblock"
	"vbrsim/internal/transform"
)

// The streaming path ladder compares the three ways of producing n serving
// frames of the paper spec: the truncated-AR(p) stream (the historical
// serving path: O(p) recursion + exact transform), the overlapped-block
// Davies-Harte stream (exact-FFT blocks + stitch + LUT transform), and the
// one-shot exact batch (a dedicated n-length circulant + LUT) as the lower
// bound a streaming engine is chasing. All three run the paper model
// end-to-end to foreground frames, so the ratios are serving-path ratios,
// not kernel ratios.

// ladderSizes are the ladder's n-equivalents.
var ladderSizes = []int{4096, 16384, 65536}

type ladderFixture struct {
	truncStream *Stream
	blockStream *Stream
	stepStreams []*Stream
	batchPlans  map[int]*daviesharte.Plan
	lut         *transform.LUT
}

var (
	ladderOnce sync.Once
	ladder     ladderFixture
	ladderErr  error
)

// stepSessions is the batched-stepping fan-out width: the trafficd session
// layer steps sessions in groups of this size per cache-warm pass.
const stepSessions = 32

func getLadder(b *testing.B) *ladderFixture {
	ladderOnce.Do(func() {
		ctx := context.Background()
		spec := Paper()
		spec.Seed = 1
		if ladder.truncStream, ladderErr = spec.OpenCtx(ctx, 0); ladderErr != nil {
			return
		}
		spec.Engine = EngineBlock
		if ladder.blockStream, ladderErr = spec.OpenCtx(ctx, 0); ladderErr != nil {
			return
		}
		for i := 0; i < stepSessions; i++ {
			s := spec
			s.Seed = uint64(100 + i)
			st, err := s.OpenCtx(ctx, 0)
			if err != nil {
				ladderErr = err
				return
			}
			ladder.stepStreams = append(ladder.stepStreams, st)
		}
		model, tr, err := spec.Source()
		if err != nil {
			ladderErr = err
			return
		}
		if ladder.lut, ladderErr = tr.NewDefaultLUT(); ladderErr != nil {
			return
		}
		ladder.batchPlans = make(map[int]*daviesharte.Plan, len(ladderSizes))
		for _, n := range ladderSizes {
			plan, err := daviesharte.NewPlan(model, n, daviesharte.Options{AllowApprox: true})
			if err != nil {
				ladderErr = err
				return
			}
			ladder.batchPlans[n] = plan
		}
	})
	if ladderErr != nil {
		b.Fatal(ladderErr)
	}
	return &ladder
}

func benchStreamFill(b *testing.B, st *Stream, n int) {
	out := make([]float64, n)
	st.Fill(out) // warm arenas and FFT tables before the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Fill(out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/frame")
}

// BenchmarkStreamTruncatedFill4096 streams 4096 paper frames through the
// truncated-AR serving path.
func BenchmarkStreamTruncatedFill4096(b *testing.B) {
	benchStreamFill(b, getLadder(b).truncStream, 4096)
}

// BenchmarkStreamTruncatedFill16384 is the n=16k rung — the ladder's
// headline comparison point.
func BenchmarkStreamTruncatedFill16384(b *testing.B) {
	benchStreamFill(b, getLadder(b).truncStream, 16384)
}

// BenchmarkStreamTruncatedFill65536 is the n=64k rung.
func BenchmarkStreamTruncatedFill65536(b *testing.B) {
	benchStreamFill(b, getLadder(b).truncStream, 65536)
}

// BenchmarkStreamBlockFill4096 streams 4096 paper frames through the
// overlapped-block engine.
func BenchmarkStreamBlockFill4096(b *testing.B) { benchStreamFill(b, getLadder(b).blockStream, 4096) }

// BenchmarkStreamBlockFill16384 is the block engine at the headline rung.
func BenchmarkStreamBlockFill16384(b *testing.B) { benchStreamFill(b, getLadder(b).blockStream, 16384) }

// BenchmarkStreamBlockFill65536 is the block engine at the n=64k rung.
func BenchmarkStreamBlockFill65536(b *testing.B) { benchStreamFill(b, getLadder(b).blockStream, 65536) }

func benchBatchExact(b *testing.B, n int) {
	f := getLadder(b)
	plan := f.batchPlans[n]
	var s daviesharte.Scratch
	src := rng.New(1)
	out := make([]float64, n)
	plan.PathRealInto(out, &s, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.PathRealInto(out, &s, src)
		f.lut.ApplyTo(out, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/frame")
}

// BenchmarkBatchExactFill4096 is the one-shot exact batch at n=4096: the
// dedicated-circulant lower bound for the ladder.
func BenchmarkBatchExactFill4096(b *testing.B) { benchBatchExact(b, 4096) }

// BenchmarkBatchExactFill16384 is the exact batch at n=16k.
func BenchmarkBatchExactFill16384(b *testing.B) { benchBatchExact(b, 16384) }

// BenchmarkBatchExactFill65536 is the exact batch at n=64k.
func BenchmarkBatchExactFill65536(b *testing.B) { benchBatchExact(b, 65536) }

// BenchmarkStreamBlockRefill measures one steady-state block refill (raw
// Davies-Harte path + stitch + LUT) by filling exactly one block per op.
// TestStreamFillZeroAlloc pins its allocation count at 0.
func BenchmarkStreamBlockRefill(b *testing.B) {
	f := getLadder(b)
	blockLen := streamblock.DefaultTotal - f.blockStream.Order()
	out := make([]float64, blockLen)
	f.blockStream.Fill(out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.blockStream.Fill(out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blockLen), "ns/frame")
}

// BenchmarkStreamStepMany steps 32 block-engine sessions by 1024 frames
// each through the par pool — the trafficd batched-stepping shape — so the
// aggregate frames/sec/core scaling with GOMAXPROCS is on the record. The
// step closure is hoisted out of the timed loop so the only per-op
// allocations are the fan-out's own goroutine overhead.
func BenchmarkStreamStepMany(b *testing.B) {
	f := getLadder(b)
	const frames = 1024
	workers := par.Workers(runtime.GOMAXPROCS(0), len(f.stepStreams))
	bufs := make([][]float64, len(f.stepStreams))
	for i := range bufs {
		bufs[i] = make([]float64, frames)
		f.stepStreams[i].Fill(bufs[i])
	}
	step := func(_, j int) {
		f.stepStreams[j].Fill(bufs[j])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.For(workers, len(f.stepStreams), step)
	}
	total := float64(len(f.stepStreams) * frames)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/frame")
}

// BenchmarkStreamStepAffinity is the same 32-session step through the
// sticky-chunk fan-out trafficd uses for /v1/streams/step: each worker
// walks one contiguous run of sessions, and the worker→range mapping is
// stable across rounds, so every session's synthesis arena stays in one
// worker's cache. Read against StreamStepMany as the striped-vs-sticky
// fan-out ratio (output is bit-identical; sessions own their randomness).
func BenchmarkStreamStepAffinity(b *testing.B) {
	f := getLadder(b)
	const frames = 1024
	workers := par.Workers(runtime.GOMAXPROCS(0), len(f.stepStreams))
	bufs := make([][]float64, len(f.stepStreams))
	for i := range bufs {
		bufs[i] = make([]float64, frames)
		f.stepStreams[i].Fill(bufs[i])
	}
	step := func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			f.stepStreams[j].Fill(bufs[j])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.ForChunks(workers, len(f.stepStreams), step)
	}
	total := float64(len(f.stepStreams) * frames)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/frame")
}
