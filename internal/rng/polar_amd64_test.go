package rng

import (
	"math"
	"sort"
	"testing"
	"time"

	"vbrsim/internal/cpu"
)

func needAVX2(t testing.TB) {
	t.Helper()
	if !cpu.AVX2 {
		t.Skip("CPU lacks AVX2")
	}
}

// checkPolar runs the vector kernel through polarVec and polar, as
// NormPairs does, and requires every pair bit-equal to polar alone.
func checkPolar(t *testing.T, u, v, s []float64) {
	t.Helper()
	got := make([]complex128, len(s))
	want := make([]complex128, len(s))
	n := polarVec(got, u, v, s)
	if n != len(s)&^3 {
		t.Fatalf("polarVec did %d of %d pairs, want %d", n, len(s), len(s)&^3)
	}
	polar(got[n:], u[n:], v[n:], s[n:])
	polar(want, u, v, s)
	for k := range want {
		if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
			math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
			t.Fatalf("pair %d of %d (s = %v, bits %016x): vector %v, scalar %v",
				k, len(s), s[k], math.Float64bits(s[k]), got[k], want[k])
		}
	}
}

// polarInputs pairs each s with fixed u and v of opposite signs.
func polarInputs(s []float64) (u, v []float64) {
	u = make([]float64, len(s))
	v = make([]float64, len(s))
	for k := range s {
		u[k] = 0.6180339887498949 - float64(k%7)*0.1
		v[k] = -0.3 + float64(k%5)*0.07
	}
	return u, v
}

// TestPolarAVX2Edges covers the inputs where the vector log's bit tricks
// could part from math.Log: every exponent s can have in (0, 1), the
// subnormals included, each at the bottom, middle and top of its mantissa
// range; the √2/2 mantissa boundary where log_amd64.s doubles the
// fraction, ±1 ulp, at every exponent; the smallest s NormPairs can
// accept (2^-104) and the largest below 1; and every tail length
// polarVec leaves to polar.
func TestPolarAVX2Edges(t *testing.T) {
	needAVX2(t)
	var s []float64
	hs := math.Float64bits(math.Sqrt2 / 2)
	const mant = 1<<52 - 1
	for e := uint64(0); e < 0x3FF; e++ {
		base := e << 52
		for _, m := range []uint64{0, 1, mant / 3, mant / 2, mant - 1, mant} {
			if x := math.Float64frombits(base | m); x > 0 {
				s = append(s, x)
			}
		}
		for d := -1; d <= 1; d++ {
			m := uint64(int64(hs&mant) + int64(d))
			if x := math.Float64frombits(base | m); x > 0 {
				s = append(s, x)
			}
		}
	}
	s = append(s, 0x1p-104, math.Nextafter(1, 0), 0.5, math.Sqrt2/2)
	u, v := polarInputs(s)
	checkPolar(t, u, v, s)
	// Tails: lengths 1..9 starting at every offset 0..3 of the inputs.
	for off := 0; off < 4; off++ {
		for n := 1; n <= 9; n++ {
			checkPolar(t, u[off:off+n], v[off:off+n], s[off:off+n])
		}
	}
}

// TestPolarAVX2Random compares the kernel with polar on accepted polar
// candidates drawn as NormPairs draws them.
func TestPolarAVX2Random(t *testing.T) {
	needAVX2(t)
	r := New(11)
	s := make([]float64, 0, 1<<16)
	var us, vs []float64
	for len(s) < cap(s) {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if q := u*u + v*v; q > 0 && q < 1 {
			us, vs, s = append(us, u), append(vs, v), append(s, q)
		}
	}
	checkPolar(t, us, vs, s)
}

// TestPolarKernelRatio gates the vector polar transform against the Go
// loop it replaces on amd64: the median polarAVX2/polar time over 11
// interleaved pairs, each side the fastest of 3 passes over 4096 accepted
// candidates, must be <= 0.75. Both sides run in one process, so the ratio
// holds on any host where absolute ns/pair does not.
func TestPolarKernelRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	needAVX2(t)
	const n = 4096
	r := New(3)
	us, vs, ss := make([]float64, n), make([]float64, n), make([]float64, n)
	for k := 0; k < n; {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if q := u*u + v*v; q > 0 && q < 1 {
			us[k], vs[k], ss[k] = u, v, q
			k++
		}
	}
	dst := make([]complex128, n)
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
	vec := func() { polarAVX2(dst, us, vs, ss) }
	scalar := func() { polar(dst, us, vs, ss) }
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
	t.Logf("polarAVX2/polar time ratios (sorted): %.3f", ratios)
	if med := ratios[pairs/2]; med > 0.75 {
		t.Errorf("median polarAVX2/polar time ratio %.3f, want <= 0.75", med)
	}
}
