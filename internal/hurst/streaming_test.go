package hurst

import (
	"math"
	"math/bits"
	"testing"

	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
)

// TestAggVarMatchesBatchAggregation pins the streaming cascade to the batch
// definition: at every dyadic scale the running variance must equal
// stats.Variance(stats.Aggregate(x, m)) on the same prefix.
func TestAggVarMatchesBatchAggregation(t *testing.T) {
	x := fgnPath(t, 0.8, 12345, 3) // deliberately not a power of two
	var a AggVar
	for _, v := range x {
		a.Push(v)
	}
	for k := 0; (1 << uint(k)) <= len(x)/2; k++ {
		m := 1 << uint(k)
		agg := stats.Aggregate(x, m)
		want := stats.Variance(agg)
		got, blocks := a.VarianceAt(k)
		if int(blocks) != len(agg) {
			t.Errorf("m=%d: blocks = %v, want %d", m, blocks, len(agg))
		}
		if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, want) {
			t.Errorf("m=%d: streaming var = %v, batch var = %v", m, got, want)
		}
	}
}

// TestAggVarBoundedLadder pins NewAggVar's ladder to the full one: every
// level it keeps holds the same statistics, bit for bit (the top level has
// no sibling to carry to, so its pending mean is not kept), and a fit
// capped at its maxM is the same fit, whether or not maxM is a power of
// two.
func TestAggVarBoundedLadder(t *testing.T) {
	x := fgnPath(t, 0.8, 1<<15, 5)
	for _, maxM := range []int{1, 700, 1024} {
		var full AggVar
		short := NewAggVar(maxM)
		for _, v := range x {
			full.Push(v)
			short.Push(v)
		}
		if want := bits.Len(uint(maxM)); len(short.lev) != want {
			t.Fatalf("maxM=%d: %d levels, want %d", maxM, len(short.lev), want)
		}
		for k := range short.lev {
			s, f := short.lev[k], full.lev[k]
			s.pend, f.pend = 0, 0
			if s != f {
				t.Fatalf("maxM=%d level %d: %+v, full ladder %+v", maxM, k, short.lev[k], full.lev[k])
			}
		}
		if v, n := short.VarianceAt(len(short.lev)); v != 0 || n != 0 {
			t.Fatalf("maxM=%d: level past the ladder reads (%v, %v)", maxM, v, n)
		}
		es, errS := short.Estimate(1, maxM, 2)
		ef, errF := full.Estimate(1, maxM, 2)
		if (errS == nil) != (errF == nil) || math.Float64bits(es.H) != math.Float64bits(ef.H) {
			t.Fatalf("maxM=%d: bounded fit (%v, %v), full fit (%v, %v)", maxM, es.H, errS, ef.H, errF)
		}
	}
}

func TestAggVarRecoversH(t *testing.T) {
	for _, h := range []float64{0.6, 0.75, 0.9} {
		x := fgnPath(t, h, 1<<18, 42)
		var a AggVar
		for _, v := range x {
			a.Push(v)
		}
		est, err := a.Estimate(16, 0, 32)
		if err != nil {
			t.Fatalf("H=%v: %v", h, err)
		}
		// The dyadic grid is coarser than VarianceTime's 10-points-per-decade
		// grid, so allow a slightly wider band than the batch test's 0.07.
		if math.Abs(est.H-h) > 0.1 {
			t.Errorf("streaming H = %v, want %v", est.H, h)
		}
		if est.R2 < 0.85 {
			t.Errorf("H=%v: poor fit R2=%v", h, est.R2)
		}
	}
}

func TestAggVarWhiteNoiseGivesHalf(t *testing.T) {
	r := rng.New(1)
	var a AggVar
	for i := 0; i < 1<<18; i++ {
		a.Push(r.Norm())
	}
	est, err := a.Estimate(16, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.H-0.5) > 0.05 {
		t.Errorf("white noise H = %v, want 0.5", est.H)
	}
	if math.Abs(est.Slope+1) > 0.1 {
		t.Errorf("white noise slope = %v, want -1", est.Slope)
	}
}

// TestAggVarMaxM verifies the scale cap used by sampled taps: with maxM set,
// no plot point may exceed it.
func TestAggVarMaxM(t *testing.T) {
	x := fgnPath(t, 0.75, 1<<16, 5)
	var a AggVar
	for _, v := range x {
		a.Push(v)
	}
	est, err := a.Estimate(4, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, lx := range est.X {
		if m := math.Pow(10, lx); m > 256.5 {
			t.Errorf("plot point at m=%v exceeds maxM=256", m)
		}
	}
}

func TestAggVarShortSeries(t *testing.T) {
	var a AggVar
	for i := 0; i < 20; i++ {
		a.Push(float64(i))
	}
	if _, err := a.Estimate(16, 0, 32); err != ErrShortSeries {
		t.Fatalf("err = %v, want ErrShortSeries", err)
	}
}

// TestAggVarOffsetStability checks the large-offset regime the monitor sees
// in production: lognormal frame sizes around 15k bytes must not lose the
// variance signal to cancellation.
func TestAggVarOffsetStability(t *testing.T) {
	x := fgnPath(t, 0.8, 1<<17, 9)
	var a, b AggVar
	const off = 1.5e4
	for _, v := range x {
		a.Push(v)
		b.Push(v + off)
	}
	ea, err := a.Estimate(16, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Estimate(16, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ea.H-eb.H) > 1e-6 {
		t.Errorf("offset shifted H: %v vs %v", ea.H, eb.H)
	}
}

func BenchmarkAggVarPush(b *testing.B) {
	x := fgnPath(b, 0.9, 1<<16, 1)
	var a AggVar
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Push(x[i&(1<<16-1)])
	}
}
