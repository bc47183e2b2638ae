package transform

import (
	"math"
	"sort"
	"testing"
	"time"

	"vbrsim/internal/cpu"
	"vbrsim/internal/dist"
	"vbrsim/internal/rng"
)

// needKernel skips without AVX2 and FMA, and where math.Exp takes its
// unfused branch (GODEBUG=cpu.fma=off), which the kernel does not port. On
// a host where math.Exp is fused, a kernel that fails the start-up probe is
// a broken kernel, not a reason to skip.
func needKernel(t testing.TB) {
	t.Helper()
	if !cpu.AVX2 || !cpu.FMA {
		t.Skip("CPU lacks AVX2 and FMA")
	}
	if !exactKernel {
		for _, x := range expProbe {
			if math.Exp(x) == expUnfused(x) {
				t.Skip("math.Exp takes its unfused branch (GODEBUG=cpu.fma=off)")
			}
		}
		t.Fatal("the kernel's exp lanes fail the start-up probe where math.Exp is fused")
	}
}

// kernelTargets are the kernel's two target kinds at serving parameters,
// plus lognormals whose final exp overflows or underflows for part of the
// normal range, so the exp fallback is exercised.
var kernelTargets = []dist.Distribution{
	dist.Lognormal{Mu: 9.6, Sigma: 0.4},
	dist.Normal{Mu: 15000, Sigma: 6000},
	dist.Normal{Mu: 0, Sigma: 1},
	dist.Lognormal{Mu: 700, Sigma: 4},
	dist.Lognormal{Mu: -735, Sigma: 6},
}

// checkExact requires ApplyTo to give T.Apply's bits on every frame of xs,
// into a separate dst and in place, and the kernel to have run on every
// whole group of four frames.
func checkExact(t *testing.T, tr T, xs []float64) {
	t.Helper()
	dst := make([]float64, len(xs))
	if n := tr.applyVec(dst, xs); n != len(xs)&^3 {
		t.Fatalf("%v: applyVec mapped %d of %d frames, want %d", tr.Target, n, len(xs), len(xs)&^3)
	}
	tr.ApplyTo(dst, xs)
	inPlace := append([]float64(nil), xs...)
	tr.ApplyTo(inPlace, inPlace)
	for i, x := range xs {
		want := math.Float64bits(tr.Apply(x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("%v: frame %d of %d, x = %v (%016x): kernel %v (%016x), Apply %v (%016x)",
				tr.Target, i, len(xs), x, math.Float64bits(x), dst[i], got, math.Float64frombits(want), want)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("%v: in place, frame %d, x = %v: kernel %v, Apply %v",
				tr.Target, i, x, inPlace[i], math.Float64frombits(want))
		}
	}
}

// around appends x and its n float64 neighbours on each side.
func around(xs []float64, x float64, n int) []float64 {
	lo, hi := x, x
	for range n {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
	}
	for v := lo; v <= hi; v = math.Nextafter(v, math.Inf(1)) {
		xs = append(xs, v, -v)
	}
	return xs
}

// crossing returns the largest float64 x with Φ(x) < p, by bisection over
// the ordered float64s (Φ is nondecreasing).
func crossing(p float64) float64 {
	lo, hi := -40.0, 40.0
	for math.Nextafter(lo, hi) < hi {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if dist.StdNormal.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// edgeInputs are the frames where the kernel's classes and fallbacks
// switch: erfc's range boundaries (in t = −x/√2), Acklam's pLow and
// pHigh, erfc's tiny branch, signed zeros, subnormals, infinities, NaN and
// a sweep out to |x| = 40.
func edgeInputs() []float64 {
	var xs []float64
	for _, b := range []float64{0.25, 0.84375, 1.25, 1 / 0.35, 6, 28} {
		xs = around(xs, b*math.Sqrt2, 8)
	}
	for _, p := range []float64{pLow, pHigh} {
		xs = around(xs, crossing(p), 8)
	}
	tiny := 1.0 / (1 << 56)
	xs = around(xs, tiny*math.Sqrt2, 8)
	xs = append(xs, 0, math.Copysign(0, -1), 1e-300, -1e-300, 5e-324, -5e-324,
		2.2250738585072014e-308, -2.2250738585072014e-308, 1e-20, -1e-20,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64)
	for x := -40.0; x <= 40; x += 1.0 / 64 {
		xs = append(xs, x)
	}
	return xs
}

// TestExactKernelMatchesApply compares the kernel with T.Apply bit for
// bit: 2^20 dense normal draws, the edge inputs, and every length 0–9 so
// each remainder goes through the per-frame tail.
func TestExactKernelMatchesApply(t *testing.T) {
	needKernel(t)
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	r := rng.New(11)
	dense := make([]float64, n)
	for i := range dense {
		dense[i] = r.Norm()
	}
	edges := edgeInputs()
	for _, target := range kernelTargets {
		tr := New(target)
		checkExact(t, tr, dense)
		checkExact(t, tr, edges)
		for l := 0; l <= 9; l++ {
			for off := 0; off+l <= len(edges); off += 97 {
				checkExact(t, tr, edges[off:off+l])
			}
		}
	}
}

// FuzzExactKernelVsApply runs the same comparison on arbitrary frames:
// eight derived from x, at arbitrary location and scale, both targets.
func FuzzExactKernelVsApply(f *testing.F) {
	f.Add(0.3, 9.6, 0.4, uint8(8))
	f.Add(-1.9728, 15000.0, 6000.0, uint8(5))
	f.Add(4.04, 0.0, 1.0, uint8(9))
	f.Add(1e-17, -700.0, 3.0, uint8(4))
	f.Fuzz(func(t *testing.T, x, mu, sigma float64, n uint8) {
		needKernel(t)
		xs := []float64{x, -x, x / 2, 2 * x, x + 1, x - 1,
			math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)), x / 3, -x / 3}
		xs = xs[:int(n)%(len(xs)+1)]
		checkExact(t, New(dist.Normal{Mu: mu, Sigma: sigma}), xs)
		checkExact(t, New(dist.Lognormal{Mu: mu, Sigma: sigma}), xs)
	})
}

// expMainPath reports whether exp_amd64.s computes math.Exp(x) on its
// main path, which EXPLANES ports, rather than one of its special exits.
func expMainPath(x float64) bool {
	const (
		log2e    = 1.4426950408889634073599246810018920
		overflow = 7.09782712893384e+02
	)
	if math.IsNaN(x) || math.IsInf(x, 0) || x > overflow {
		return false
	}
	k := math.RoundToEven(x * log2e)
	if k < math.MinInt32 || k > math.MaxInt32 {
		return false // CVTSD2SL's indefinite integer, a large negative exponent
	}
	biased := int64(k) + 0x3FF
	return biased > 0 && biased < 0x7FF
}

// TestExactKernelMatchesExp compares the kernel's exp lanes with math.Exp
// bit for bit, and requires NaN exactly where math.Exp leaves its main
// path: dense inputs over the whole finite range, the overflow and
// subnormal edges, and arguments whose x·log2(e) is a rounding tie of the
// integer conversion.
func TestExactKernelMatchesExp(t *testing.T) {
	needKernel(t)
	const log2e = 1.4426950408889634073599246810018920
	r := rng.New(12)
	var xs []float64
	for range 1 << 18 {
		xs = append(xs, 3*r.Norm(), 1500*r.Float64()-760)
	}
	for _, e := range []float64{7.09782712893384e+02, 1023.5 / log2e, -1021.5 / log2e, -1022.5 / log2e,
		-708.3964185322641, -744.4400719213812, -745.1332191019411} {
		xs = around(xs, e, 16)
	}
	ties := 0
	for k := -1100; k <= 1100; k++ {
		x0 := (float64(k) + 0.5) / log2e
		for x, i := x0, 0; i < 64; x, i = math.Nextafter(x, math.Inf(1)), i+1 {
			if x*log2e == float64(k)+0.5 {
				xs = append(xs, x)
				ties++
			}
		}
		for x, i := math.Nextafter(x0, math.Inf(-1)), 0; i < 64; x, i = math.Nextafter(x, math.Inf(-1)), i+1 {
			if x*log2e == float64(k)+0.5 {
				xs = append(xs, x)
				ties++
			}
		}
	}
	if ties < 100 {
		t.Fatalf("found %d conversion ties, want at least 100", ties)
	}
	t.Logf("%d arguments, %d of them conversion ties", len(xs), ties)
	xs = append(xs, 0, math.Copysign(0, -1), 5e-324, math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64)
	for len(xs)%4 != 0 {
		xs = append(xs, 1)
	}
	got := make([]float64, len(xs))
	expAVX2(got, xs)
	for i, x := range xs {
		if !expMainPath(x) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("exp(%v): kernel %v off math.Exp's main path, want NaN", x, got[i])
			}
			continue
		}
		if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%v) (%016x): kernel %v (%016x), math.Exp %v (%016x)",
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// expUnfused transcribes exp_amd64.s's branch without fused multiply-add,
// the one math.Exp takes without FMA.
func expUnfused(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(float64(x * log2e))
	x -= float64(k * ln2U)
	x -= float64(k * ln2L)
	x = float64(x * 0.0625)
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0} {
		p = float64(p*x) + c
	}
	x = float64(x * p)
	for range 4 {
		x = float64(x * (x + 2))
	}
	return math.Ldexp(x+1, int(k))
}

// TestExpProbeSeparatesBranches checks that the start-up probe can tell
// math.Exp's two amd64 branches apart: on every probe argument the fused
// kernel and the unfused transcript differ, so a math.Exp on the unfused
// branch fails the probe and the kernel stays off.
func TestExpProbeSeparatesBranches(t *testing.T) {
	needKernel(t)
	var fused [len(expProbe)]float64
	expAVX2(fused[:], expProbe[:])
	for i, x := range expProbe {
		if fused[i] == expUnfused(x) {
			t.Errorf("probe %v: fused and unfused exp agree (%v)", x, fused[i])
		}
	}
}

// TestExactKernelRatio gates the kernel's speed: the median time of
// ApplyTo over a 4096-frame path against the per-frame Apply loop, both
// timed in one process in interleaved rounds (fastest of three runs each),
// must stay <= 0.5 for the paper's lognormal target.
func TestExactKernelRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	needKernel(t)
	tr := New(dist.Lognormal{Mu: 9.6, Sigma: 0.4})
	xs, dst := benchNormals(applyLen)
	fastest := func(run func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for range 3 {
			t0 := time.Now()
			run()
			d = min(d, time.Since(t0))
		}
		return d
	}
	vec := func() { tr.ApplyTo(dst, xs) }
	scalar := func() {
		for i, x := range xs {
			dst[i] = tr.Apply(x)
		}
	}
	fastest(vec)
	fastest(scalar)
	const pairs = 11
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
	t.Logf("kernel/Go-loop time ratios (sorted): %.3f", ratios)
	if med := ratios[pairs/2]; med > 0.5 {
		t.Errorf("median kernel/Go-loop time ratio %.3f, want <= 0.5", med)
	}
}
