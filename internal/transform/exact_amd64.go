package transform

import (
	"math"

	"vbrsim/internal/cpu"
)

// phiAVX2 sets dst[i] = 0.5·math.Erfc(−src[i]/√2), dist.StdNormal's CDF,
// for i < len(src) (a multiple of four), or NaN where |src[i]|/√2 is not
// below 1/0.35 (erfc's far tail) or src[i] is NaN.
//
//go:noescape
func phiAVX2(dst, src []float64)

// acklamAVX2 sets dst[i] to dist.stdNormalQuantile's rational estimate
// of Φ⁻¹(p[i]) before its Halley step, for p[i] in (0, 1); NaN in p stays
// NaN.
//
//go:noescape
func acklamAVX2(dst, p []float64)

// halleyAVX2 finishes the standard normal quantile and maps it to the
// target's location and scale: with x = q[i] and e = e[i] − p[i], where
// e[i] = Φ(q[i]), it takes the Halley step and sets dst[i] = mu + sigma·x.
// dst may alias e.
//
//go:noescape
func halleyAVX2(dst, q, e, p []float64, mu, sigma float64)

// expAVX2 sets dst[i] = math.Exp(src[i]) for i < len(src) (a multiple of
// four), with the lanes code phiAVX2 and halleyAVX2 run too; NaN where
// math.Exp leaves its main path (NaN, ±Inf, overflow, a subnormal or zero
// result). dst may alias src.
//
//go:noescape
func expAVX2(dst, src []float64)

// exactKernel reports whether the vector kernel runs. math.Exp on amd64
// takes its fused multiply-add branch exactly when the processor has AVX2
// and FMA, unless GODEBUG turns the runtime's fma detection off; the probe
// catches that case, so the kernel ports the branch math.Exp actually
// takes or does not run.
var exactKernel = cpu.AVX2 && cpu.FMA && expProbeMatches()

// expProbe holds arguments at which math.Exp's fused and unfused branches
// round differently, found by comparing math.Exp with a Go transcript of
// the unfused branch (expUnfused in the tests) over normal draws. Under
// GODEBUG=cpu.fma=off the transcript matched math.Exp on 100 000 of
// 100 000 draws; with the fused branch it differed on about 9%.
var expProbe = [4]float64{-0.4115374992476508, -1.5165651903903778, 0.38338463008279294, 0.5784932332500923}

func expProbeMatches() bool {
	var got [4]float64
	expAVX2(got[:], expProbe[:])
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// exactLanes runs the transform's vector stages over one block: p = Φ(x),
// q = Acklam's estimate of Φ⁻¹(p), out = Φ(q), then the Halley step and
// the target's location and scale in place over out, and for a lognormal
// its exp. Each stage is a short loop, so the processor overlaps the long
// dependency chains of several iterations.
func exactLanes(out, p, q, xs []float64, mu, sigma float64, logn bool) {
	phiAVX2(p, xs)
	acklamAVX2(q, p)
	phiAVX2(out, q)
	halleyAVX2(out, q, out, p, mu, sigma)
	if logn {
		expAVX2(out, out)
	}
}

// The coefficients of $GOROOT/src/math/erf.go's erfc, with its literals.
const (
	erx = 8.45062911510467529297e-01

	pp0 = 1.28379167095512558561e-01
	pp1 = -3.25042107247001499370e-01
	pp2 = -2.84817495755985104766e-02
	pp3 = -5.77027029648944159157e-03
	pp4 = -2.37630166566501626084e-05
	qq1 = 3.97917223959155352819e-01
	qq2 = 6.50222499887672944485e-02
	qq3 = 5.08130628187576562776e-03
	qq4 = 1.32494738004321644526e-04
	qq5 = -3.96022827877536812320e-06

	pa0 = -2.36211856075265944077e-03
	pa1 = 4.14856118683748331666e-01
	pa2 = -3.72207876035701323847e-01
	pa3 = 3.18346619901161753674e-01
	pa4 = -1.10894694282396677476e-01
	pa5 = 3.54783043256182359371e-02
	pa6 = -2.16637559486879084300e-03
	qa1 = 1.06420880400844228286e-01
	qa2 = 5.40397917702171048937e-01
	qa3 = 7.18286544141962662868e-02
	qa4 = 1.26171219808761642112e-01
	qa5 = 1.36370839120290507362e-02
	qa6 = 1.19844998467991074170e-02

	ra0 = -9.86494403484714822705e-03
	ra1 = -6.93858572707181764372e-01
	ra2 = -1.05586262253232909814e+01
	ra3 = -6.23753324503260060396e+01
	ra4 = -1.62396669462573470355e+02
	ra5 = -1.84605092906711035994e+02
	ra6 = -8.12874355063065934246e+01
	ra7 = -9.81432934416914548592e+00
	sa1 = 1.96512716674392571292e+01
	sa2 = 1.37657754143519042600e+02
	sa3 = 4.34565877475229228821e+02
	sa4 = 6.45387271733267880336e+02
	sa5 = 4.29008140027567833386e+02
	sa6 = 1.08635005541779435134e+02
	sa7 = 6.57024977031928170135e+00
	sa8 = -6.04244152148580987438e-02
)

// The coefficients of dist.stdNormalQuantile (Acklam's), with its literals.
const (
	a1 = -3.969683028665376e+01
	a2 = 2.209460984245205e+02
	a3 = -2.759285104469687e+02
	a4 = 1.383577518672690e+02
	a5 = -3.066479806614716e+01
	a6 = 2.506628277459239e+00

	b1 = -5.447609879822406e+01
	b2 = 1.615858368580409e+02
	b3 = -1.556989798598866e+02
	b4 = 6.680131188771972e+01
	b5 = -1.328068155288572e+01

	c1 = -7.784894002430293e-03
	c2 = -3.223964580411365e-01
	c3 = -2.400758277161838e+00
	c4 = -2.549732539343734e+00
	c5 = 4.374664141464968e+00
	c6 = 2.938163982698783e+00

	d1 = 7.784695709041462e-03
	d2 = 3.224671290700398e-01
	d3 = 2.445134137142996e+00
	d4 = 3.754408661907416e+00

	pLow  = 0.02425
	pHigh = 1 - pLow
)

// exactK holds the kernels' float constants four lanes wide, one row per
// constant, in the order exact_amd64.s's K_ names index them. Each is the
// Go constant expression its scalar source writes (1 - erx, 1/0.35,
// math.Sqrt(2*math.Pi), ...), so it rounds exactly as the compiler rounds
// it there.
var exactK = [...][4]float64{
	lanes(math.Copysign(0, -1)),            // 0 sign bit
	lanes(math.Float64frombits(1<<63 - 1)), // 1 magnitude mask
	lanes(math.NaN()),                      // 2
	lanes(0.5),                             // 3
	lanes(1),                               // 4
	lanes(2),                               // 5
	lanes(math.Sqrt2),                      // 6
	lanes(0.84375),                         // 7 erfc class bounds
	lanes(1.25),                            // 8
	lanes(1 / 0.35),                        // 9
	lanes(1.0 / (1 << 56)),                 // 10 erfc's Tiny
	lanes(0.25),                            // 11
	lanes(math.Float64frombits(0xffffffff00000000)), // 12 pseudo-single mask
	lanes(0.5625),                                              // 13
	lanes(1 + erx),                                             // 14
	lanes(1 - erx),                                             // 15
	lanes(pp0), lanes(pp1), lanes(pp2), lanes(pp3), lanes(pp4), // 16-20
	lanes(qq1), lanes(qq2), lanes(qq3), lanes(qq4), lanes(qq5), // 21-25
	lanes(pa0), lanes(pa1), lanes(pa2), lanes(pa3), lanes(pa4), lanes(pa5), lanes(pa6), // 26-32
	lanes(qa1), lanes(qa2), lanes(qa3), lanes(qa4), lanes(qa5), lanes(qa6), // 33-38
	lanes(ra0), lanes(ra1), lanes(ra2), lanes(ra3), lanes(ra4), lanes(ra5), lanes(ra6), lanes(ra7), // 39-46
	lanes(sa1), lanes(sa2), lanes(sa3), lanes(sa4), lanes(sa5), lanes(sa6), lanes(sa7), lanes(sa8), // 47-54
	lanes(a1), lanes(a2), lanes(a3), lanes(a4), lanes(a5), lanes(a6), // 55-60
	lanes(b1), lanes(b2), lanes(b3), lanes(b4), lanes(b5), // 61-65
	lanes(c1), lanes(c2), lanes(c3), lanes(c4), lanes(c5), lanes(c6), // 66-71
	lanes(d1), lanes(d2), lanes(d3), lanes(d4), // 72-75
	lanes(pLow),                   // 76
	lanes(pHigh),                  // 77
	lanes(-2),                     // 78
	lanes(math.Sqrt(2 * math.Pi)), // 79
}

func lanes(v float64) [4]float64 { return [4]float64{v, v, v, v} }
