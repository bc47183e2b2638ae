package fft

import (
	"math"
	"sort"
	"testing"
	"time"

	"vbrsim/internal/cpu"
	"vbrsim/internal/rng"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func needAVX2(t testing.TB) {
	t.Helper()
	if !cpu.AVX2 {
		t.Skip("CPU lacks AVX2")
	}
}

// checkRadix22 runs one double stage at half-length q over a random z of
// length h with both kernels and requires the same bits. The values are
// finite, with magnitudes over 2^±20, so no lane sees a NaN whose payload
// would depend on operand order.
func checkRadix22(t *testing.T, seed uint64, h, q int) {
	t.Helper()
	tw := tablesFor(h).inv
	u, w := tw[q-1:2*q-1], tw[2*q-1:3*q-1]
	r := rng.New(seed)
	val := func() float64 { return math.Ldexp(2*r.Float64()-1, r.Intn(41)-20) }
	want := make([]complex128, h)
	for i := range want {
		want[i] = complex(val(), val())
	}
	got := append([]complex128(nil), want...)
	radix22(want, u, w)
	radix22AVX2(got, u, w)
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("seed %d h %d q %d: z[%d] = %v from radix22AVX2, %v from radix22", seed, h, q, i, got[i], want[i])
		}
	}
}

// TestRadix22AVX2AllSizes covers every table size from 4 to 2^16 and every
// even half-length a double stage can run at within it.
func TestRadix22AVX2AllSizes(t *testing.T) {
	needAVX2(t)
	for h := 8; h <= 1<<16; h <<= 1 {
		for q := 2; 4*q <= h; q <<= 1 {
			checkRadix22(t, uint64(h*q), h, q)
		}
	}
}

// checkRadix2 runs one radix-2 stage at half-length q over a random x of
// length h, with the forward or the inverse twiddles, through radix2 and
// radix2AVX2 and requires the same bits (values as in checkRadix22).
func checkRadix2(t *testing.T, seed uint64, h, q int, inverse bool) {
	t.Helper()
	tb := tablesFor(h)
	tw := tb.fwd
	if inverse {
		tw = tb.inv
	}
	w := tw[q-1 : 2*q-1]
	r := rng.New(seed)
	val := func() float64 { return math.Ldexp(2*r.Float64()-1, r.Intn(41)-20) }
	want := make([]complex128, h)
	for i := range want {
		want[i] = complex(val(), val())
	}
	got := append([]complex128(nil), want...)
	radix2(want, w)
	radix2AVX2(got, w)
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("seed %d h %d q %d inverse %v: x[%d] = %v from radix2AVX2, %v from radix2", seed, h, q, inverse, i, got[i], want[i])
		}
	}
}

// TestRadix2AVX2AllSizes covers every table size from 2^3 to 2^16, every
// half-length q >= 2 a stage can run at within it, and both twiddle
// directions (forward for RealForward and Forward, inverse for Inverse and
// the Hermitian kernel's parity stage).
func TestRadix2AVX2AllSizes(t *testing.T) {
	needAVX2(t)
	for h := 8; h <= 1<<16; h <<= 1 {
		for q := 2; 2*q <= h; q <<= 1 {
			checkRadix2(t, uint64(h*q), h, q, false)
			checkRadix2(t, uint64(h*q+1), h, q, true)
		}
	}
}

// FuzzButterflyVsScalar compares both AVX2 butterfly kernels with their Go
// loops bit for bit on random inputs, at table sizes 2^3..2^16: the
// radix-2² double stage at every even q that fits, and the radix-2 stage
// at every q >= 2 that fits, in the twiddle direction seed's low bit picks.
func FuzzButterflyVsScalar(f *testing.F) {
	needAVX2(f)
	f.Add(uint64(1), uint8(3), uint8(1))
	f.Add(uint64(2), uint8(13), uint8(3))
	f.Add(uint64(3), uint8(11), uint8(9))
	f.Add(uint64(4), uint8(16), uint8(14))
	f.Fuzz(func(t *testing.T, seed uint64, logH, logQ uint8) {
		lh := 3 + int(logH)%14     // h = 2^3 .. 2^16
		lq := 1 + int(logQ)%(lh-2) // q = 2 .. h/4
		checkRadix22(t, seed, 1<<lh, 1<<lq)
		l2 := 1 + int(logQ)%(lh-1) // q = 2 .. h/2
		checkRadix2(t, seed, 1<<lh, 1<<l2, seed&1 == 1)
	})
}

// kernelRatio times vec and scalar as 11 interleaved pairs, each side the
// fastest of 3 passes after one warm-up, and returns the sorted vec/scalar
// time ratios.
func kernelRatio(vec, scalar func()) []float64 {
	const pairs = 11
	fastest := func(run func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for range 3 {
			t0 := time.Now()
			run()
			d = min(d, time.Since(t0))
		}
		return d
	}
	fastest(vec)
	fastest(scalar)
	ratios := make([]float64, pairs)
	for p := range ratios {
		var dv, ds time.Duration
		if p%2 == 0 {
			dv, ds = fastest(vec), fastest(scalar)
		} else {
			ds, dv = fastest(scalar), fastest(vec)
		}
		ratios[p] = float64(dv) / float64(ds)
	}
	sort.Float64s(ratios)
	return ratios
}

// TestButterflyKernelRatio gates the AVX2 double stages against radix22 at
// the block engine's synthesis size (h = 8192, the double stages a refill
// runs: q = 8, 32, 128, 512, 2048): the median vector/scalar time over 11
// interleaved pairs, each side the fastest of 3 passes, must be <= 0.75.
func TestButterflyKernelRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	needAVX2(t)
	const h = 8192
	tw := tablesFor(h).inv
	z := make([]complex128, h)
	r := rng.New(5)
	for i := range z {
		z[i] = complex(r.Norm(), r.Norm())
	}
	stages := func(kernel func(z, u, w []complex128)) func() {
		return func() {
			for q := 8; 4*q <= h; q <<= 2 {
				kernel(z, tw[q-1:2*q-1], tw[2*q-1:3*q-1])
			}
		}
	}
	ratios := kernelRatio(stages(radix22AVX2), stages(radix22))
	t.Logf("radix22AVX2/radix22 time ratios (sorted): %.3f", ratios)
	if med := ratios[len(ratios)/2]; med > 0.75 {
		t.Errorf("median radix22AVX2/radix22 time ratio %.3f, want <= 0.75", med)
	}
}

// TestRadix2KernelRatio gates the AVX2 radix-2 stage against radix2 over
// the middle stages RealForward runs at F = 4096, the block engine's
// stitch size (h = 2048, q = 2 .. 512): the median vector/scalar time over
// 11 interleaved pairs, each side the fastest of 3 passes, must be <= 0.75.
func TestRadix2KernelRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	needAVX2(t)
	const h = 2048
	stages := tablesFor(h).fwdStages
	x := make([]complex128, h)
	r := rng.New(6)
	for i := range x {
		x[i] = complex(r.Norm(), r.Norm())
	}
	run := func(kernel func(x, w []complex128)) func() {
		return func() {
			for s := 1; 1<<s < h/2; s++ {
				kernel(x, stages[s])
			}
		}
	}
	ratios := kernelRatio(run(radix2AVX2), run(radix2))
	t.Logf("radix2AVX2/radix2 time ratios (sorted): %.3f", ratios)
	if med := ratios[len(ratios)/2]; med > 0.75 {
		t.Errorf("median radix2AVX2/radix2 time ratio %.3f, want <= 0.75", med)
	}
}
