package statmon

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"vbrsim/internal/modelspec"
)

// The serve-path tax of the live monitor. Both benchmarks stream the paper
// spec through the block engine in trafficd-sized chunks; the On variant
// additionally feeds every chunk through a Monitor at the server's default
// sampling rate with the full analytic reference attached (implied ACF,
// target Hurst, marginal quantiles) — exactly what the server's produce
// loop does per chunk. Their difference is too noisy on a shared host to
// gate; TestTapShareOfFill times the tap itself instead.

const (
	statmonFillLen = 16384 // frames per op, matching StreamBlockFill16384
	statmonChunk   = 1024  // trafficd serve-path chunk size (server.streamChunk)
	statmonSample  = 32    // trafficd default Options.StatmonSampleEvery
)

// tapped opens a paper stream on the given engine and the monitor the
// server would attach to it.
func tapped(tb testing.TB, seed uint64, engine string) (*modelspec.Stream, *Monitor) {
	spec := modelspec.Paper()
	spec.Seed = seed
	spec.Engine = engine
	st, err := spec.OpenCtx(context.Background(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	ref := Ref{
		H:          spec.TargetHurst(),
		AsymH:      spec.ACF.AsymptoticHurst(),
		ImpliedACF: st.ImpliedACF(statmonChunk + 1),
		Mean:       st.MeanRate(),
	}
	if marg := st.Marginal(); marg != nil {
		ref.Quantile = marg.Quantile
	}
	return st, New(Config{SampleEvery: statmonSample, MaxScale: statmonChunk}, ref)
}

type statmonFixture struct {
	off *modelspec.Stream
	on  *modelspec.Stream
	mon *Monitor
	pos int64 // absolute stream position of the On variant's tap
}

var (
	statmonOnce sync.Once
	statmonFix  statmonFixture
)

func getStatmonFixture(b *testing.B) *statmonFixture {
	statmonOnce.Do(func() {
		statmonFix.off, _ = tapped(b, 2, modelspec.EngineBlock)
		statmonFix.on, statmonFix.mon = tapped(b, 2, modelspec.EngineBlock)
	})
	if statmonFix.mon == nil {
		b.Fatal("statmon fixture failed to open")
	}
	return &statmonFix
}

// BenchmarkStreamBlockFillStatmonOff is the untapped baseline: 16384 paper
// frames per op through the block engine in 1024-frame serve chunks.
func BenchmarkStreamBlockFillStatmonOff(b *testing.B) {
	f := getStatmonFixture(b)
	out := make([]float64, statmonChunk)
	for c := 0; c < statmonFillLen/statmonChunk; c++ {
		f.off.Fill(out) // warm arenas and FFT tables before the timer
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < statmonFillLen/statmonChunk; c++ {
			f.off.Fill(out)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(statmonFillLen), "ns/frame")
}

// BenchmarkStreamBlockFillStatmonOn is the identical fill with the
// serve-path monitor tap: every chunk is offered to Observe, which samples
// one in statmonSample chunks into the online Hurst/ACF/quantile state.
func BenchmarkStreamBlockFillStatmonOn(b *testing.B) {
	f := getStatmonFixture(b)
	out := make([]float64, statmonChunk)
	for c := 0; c < statmonFillLen/statmonChunk; c++ {
		f.on.Fill(out)
		f.mon.Observe(f.pos, out)
		f.pos += statmonChunk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < statmonFillLen/statmonChunk; c++ {
			f.on.Fill(out)
			f.mon.Observe(f.pos, out)
			f.pos += statmonChunk
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(statmonFillLen), "ns/frame")
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestTapShareOfFill bounds the monitor's serve-path cost as a share of
// synthesis: every Observe is timed against the fill of the same
// 1024-frame chunk, at the server's default 1-in-32 sampling, over 11
// rounds of 256 chunks. The fill is the paper spec's truncated engine, the
// AR(p) recursion: a fixed unit of work that the vector kernels behind
// block refills (rng.PolarTransform, fft's radix-2² stages) do not touch,
// so a faster block engine cannot move the share while the tap stays put.
// The median tap/fill time share must stay <= 0.0065 (it reads about
// 0.0045 on a 2-vCPU Xeon; a tap made 2x slower reads about 0.009). Both
// sides are timed in one process, chunk by chunk, so host speed and load
// cancel.
func TestTapShareOfFill(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	const (
		chunks = 256
		rounds = 11
	)
	st, mon := tapped(t, 3, modelspec.EngineTruncated)
	defer st.Close()
	out := make([]float64, statmonChunk)
	var pos int64
	for c := 0; c < 2*statmonSample; c++ { // warm arenas and P² markers
		st.Fill(out)
		mon.Observe(pos, out)
		pos += statmonChunk
	}
	shares := make([]float64, rounds)
	for r := range shares {
		var fill, tap time.Duration
		for c := 0; c < chunks; c++ {
			t0 := time.Now()
			st.Fill(out)
			t1 := time.Now()
			mon.Observe(pos, out)
			t2 := time.Now()
			pos += statmonChunk
			fill += t1.Sub(t0)
			tap += t2.Sub(t1)
		}
		shares[r] = float64(tap) / float64(fill)
	}
	sort.Float64s(shares)
	t.Logf("tap/fill time shares (sorted): %.4f", shares)
	if med := shares[rounds/2]; med > 0.0065 {
		t.Errorf("median tap/fill time share %.4f, want <= 0.0065", med)
	}
}
