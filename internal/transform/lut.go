package transform

import (
	"errors"
	"fmt"
	"math"
)

// LUT is a precomputed lookup-table fast path for the transform: the fused
// composition h = F_Y^{-1} ∘ Φ is tabulated once on an even grid over
// [lo, hi] and evaluated by linear interpolation, replacing a normal-CDF plus
// quantile inversion per sample with one table read. Because h is monotone
// (both Φ and the quantile are nondecreasing), linear interpolation between
// exact samples preserves monotonicity.
//
// Inputs outside [lo, hi] (and NaNs) fall back to the exact transform, so the
// table range only needs to cover the bulk of the standard normal background
// mass. MaxError reports the measured interpolation error, giving callers a
// concrete bound to accept or reject.
//
// A LUT is immutable after construction and safe for concurrent use.
type LUT struct {
	t       T
	lo, hi  float64
	invStep float64
	vals    []float64
	maxErr  float64
}

// DefaultLUTBins is the grid size NewDefaultLUT uses. At 4096 bins over
// [-6, 6] the measured error for the paper's lognormal marginal is well
// under 1e-1 absolute on frame sizes of order 1e4..1e5 (relative error
// ~1e-7 or better).
const DefaultLUTBins = 4096

// NewLUT tabulates the transform at bins+1 points over [lo, hi]. The
// reported max error is measured by comparing the interpolant against the
// exact transform at every grid midpoint — the point of maximal error for a
// smooth h — so it is an empirical bound, not an analytic one.
func (t T) NewLUT(bins int, lo, hi float64) (*LUT, error) {
	if bins < 2 {
		return nil, errors.New("transform: LUT needs at least 2 bins")
	}
	if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("transform: invalid LUT range [%v, %v]", lo, hi)
	}
	l := &LUT{t: t, lo: lo, hi: hi}
	step := (hi - lo) / float64(bins)
	l.invStep = 1 / step
	l.vals = make([]float64, bins+1)
	for i := range l.vals {
		l.vals[i] = lo + float64(i)*step
	}
	t.ApplyTo(l.vals, l.vals)
	mids := make([]float64, bins)
	for i := range mids {
		mids[i] = lo + (float64(i)+0.5)*step
	}
	for i, exact := range t.ApplyTo(mids, mids) {
		interp := 0.5 * (l.vals[i] + l.vals[i+1])
		if d := math.Abs(interp - exact); d > l.maxErr {
			l.maxErr = d
		}
	}
	return l, nil
}

// NewDefaultLUT builds the LUT with the package's default grid: [-6, 6] at
// DefaultLUTBins bins. The range is chosen for resolution, not just mass:
// beyond x ≈ 6 the upper normal-CDF tail saturates double precision (the
// spacing of representable p near 1 maps back to x-steps of ~1e-2 by x = 8),
// so tabulating further would only bake that quantization noise into the
// table. The ~2e-9 of standard normal mass outside the range takes the exact
// fallback instead.
func (t T) NewDefaultLUT() (*LUT, error) {
	return t.NewLUT(DefaultLUTBins, -6, 6)
}

// MaxError returns the measured interpolation error of the table: the
// largest |LUT.Apply(x) - T.Apply(x)| over all grid midpoints.
func (l *LUT) MaxError() float64 { return l.maxErr }

// Range returns the tabulated interval; outside it Apply falls back to the
// exact transform.
func (l *LUT) Range() (lo, hi float64) { return l.lo, l.hi }

// Apply evaluates the transform through the table, falling back to the exact
// computation outside the tabulated range (the comparison is written so NaN
// also takes the exact path).
func (l *LUT) Apply(x float64) float64 {
	if !(x >= l.lo && x <= l.hi) {
		return l.t.Apply(x)
	}
	f := (x - l.lo) * l.invStep
	i := int(f)
	if i >= len(l.vals)-1 {
		i = len(l.vals) - 2
	}
	v0 := l.vals[i]
	return v0 + (f-float64(i))*(l.vals[i+1]-v0)
}

// ApplyTo maps xs into dst through the table (dst may alias xs) and returns
// dst[:len(xs)]. It performs no allocations.
func (l *LUT) ApplyTo(dst, xs []float64) []float64 {
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = l.Apply(x)
	}
	return dst
}
