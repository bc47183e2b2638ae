package rng

import (
	"math"
	"sort"
	"testing"
	"time"
)

var raceEnabled bool

// normPairsRef is the loop NormPairs replaces: 2·len(dst) successive Norm
// calls, real part first.
func normPairsRef(r *Source, dst []complex128) {
	for k := range dst {
		re := r.Norm()
		im := r.Norm()
		dst[k] = complex(re, im)
	}
}

// checkNormPairs draws prefix normals from two generators seeded alike,
// fills n pairs on one with NormPairs and on the other with the Norm loop,
// and requires the same bits and the same generator state afterwards.
func checkNormPairs(t *testing.T, seed uint64, prefix, n int) {
	t.Helper()
	got, want := New(seed), New(seed)
	for i := 0; i < prefix; i++ {
		got.Norm()
		want.Norm()
	}
	g := make([]complex128, n)
	w := make([]complex128, n)
	got.NormPairs(g)
	normPairsRef(want, w)
	for k := range w {
		if math.Float64bits(real(g[k])) != math.Float64bits(real(w[k])) ||
			math.Float64bits(imag(g[k])) != math.Float64bits(imag(w[k])) {
			t.Fatalf("seed %d prefix %d n %d: pair %d = %v, Norm loop %v", seed, prefix, n, k, g[k], w[k])
		}
	}
	if *got != *want {
		t.Fatalf("seed %d prefix %d n %d: generator state %+v after NormPairs, %+v after the Norm loop",
			seed, prefix, n, *got, *want)
	}
	// The streams must stay in step afterwards, spare included.
	for i := 0; i < 3; i++ {
		if a, b := got.Norm(), want.Norm(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("seed %d prefix %d n %d: draw %d after the fill: %v vs %v", seed, prefix, n, i, a, b)
		}
	}
}

func TestNormPairsMatchesNorm(t *testing.T) {
	lengths := []int{0, 1, 2, 7, 255, normBatch - 1, normBatch, normBatch + 1, 2*normBatch + 1, 16384}
	for _, seed := range []uint64{1, 42, 1 << 60} {
		for _, n := range lengths {
			// prefix 0 and 2 start with no spare pending; 1 and 3 with one.
			for prefix := 0; prefix < 4; prefix++ {
				checkNormPairs(t, seed, prefix, n)
			}
		}
	}
}

// TestNormPairsNoAlloc pins that the staging batch stays on the stack.
func TestNormPairsNoAlloc(t *testing.T) {
	r := New(5)
	dst := make([]complex128, 4096)
	if a := testing.AllocsPerRun(10, func() { r.NormPairs(dst) }); a != 0 {
		t.Fatalf("NormPairs allocates %.1f objects per call, want 0", a)
	}
}

// TestNormPairsRatio gates the batched draw's speed against the Norm loop
// it replaces (the normal draws behind every Davies-Harte spectrum): the
// median NormPairs/Norm time over 11 interleaved pairs, each side the
// fastest of 3 fills of 4096 pairs, must be <= 0.75. Both sides run in one
// process, so the ratio holds on any host where absolute ns/draw does not.
func TestNormPairsRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	const pairs = 11
	batched, looped := New(1), New(1)
	dst := make([]complex128, 4096)
	fastest := func(fill func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for range 3 {
			t0 := time.Now()
			fill()
			d = min(d, time.Since(t0))
		}
		return d
	}
	fillPairs := func() time.Duration { return fastest(func() { batched.NormPairs(dst) }) }
	fillNorm := func() time.Duration { return fastest(func() { normPairsRef(looped, dst) }) }
	fillPairs()
	fillNorm()
	ratios := make([]float64, pairs)
	for p := range ratios {
		var dp, dn time.Duration
		if p%2 == 0 {
			dp, dn = fillPairs(), fillNorm()
		} else {
			dn, dp = fillNorm(), fillPairs()
		}
		ratios[p] = float64(dp) / float64(dn)
	}
	sort.Float64s(ratios)
	t.Logf("NormPairs/Norm time ratios (sorted): %.3f", ratios)
	if med := ratios[pairs/2]; med > 0.75 {
		t.Errorf("median NormPairs/Norm time ratio %.3f, want <= 0.75", med)
	}
}

func FuzzNormPairsVsNorm(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(0))
	f.Add(uint64(7), uint8(1), uint16(1))
	f.Add(uint64(1<<63), uint8(3), uint16(normBatch+1))
	f.Add(uint64(99), uint8(2), uint16(8191))
	f.Fuzz(func(t *testing.T, seed uint64, prefix uint8, n uint16) {
		checkNormPairs(t, seed, int(prefix), int(n))
	})
}
