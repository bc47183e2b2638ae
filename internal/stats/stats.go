// Package stats provides the descriptive statistics used throughout the
// library: moments, autocorrelation, histograms, empirical CDFs and
// quantiles, Q-Q pairs, least-squares regression (linear and log-log), and
// the block aggregation X^(m) used by variance-time analysis.
package stats

import (
	"errors"
	"math"
	"sort"

	"vbrsim/internal/fft"
)

// ErrEmpty is returned by operations that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// ErrNaN is returned by constructors whose order-statistic invariants a NaN
// observation would silently corrupt (sorting is not a total order with
// NaN present).
var ErrNaN = errors.New("stats: sample contains NaN")

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the biased (divide-by-n) sample variance of x.
// The biased form matches the classical time-series conventions used by the
// paper's variance-time analysis.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the square root of the biased sample variance.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// MeanVar returns mean and biased variance in a single pass.
func MeanVar(x []float64) (mean, variance float64) {
	n := len(x)
	if n == 0 {
		return 0, 0
	}
	// Welford's algorithm for numerical stability on long traces.
	var m, m2 float64
	for i, v := range x {
		delta := v - m
		m += delta / float64(i+1)
		m2 += delta * (v - m)
	}
	return m, m2 / float64(n)
}

// Skewness returns the standardized third central moment of x.
func Skewness(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	m, v := MeanVar(x)
	if v == 0 {
		return 0
	}
	var s float64
	for _, xv := range x {
		d := xv - m
		s += d * d * d
	}
	return s / float64(n) / math.Pow(v, 1.5)
}

// Min and Max return the extrema of x; both return 0 for empty input.
func Min(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of x, or 0 for empty input.
func Max(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Autocorrelation returns the sample autocorrelation of x at lags 0..maxLag.
// It delegates to the FFT implementation, which is exact (up to rounding) and
// O(n log n).
func Autocorrelation(x []float64, maxLag int) []float64 {
	return fft.Autocorrelation(x, maxLag)
}

// AutocovarianceKnownMean returns the biased sample autocovariance at lags
// 0..maxLag around an externally known process mean instead of the sample
// mean. Use it when the true mean is known (e.g. zero-mean synthetic
// Gaussian processes): it removes the negative bias the sample-mean
// estimator suffers on LRD series.
func AutocovarianceKnownMean(x []float64, mean float64, maxLag int) []float64 {
	return fft.AutocovarianceKnownMean(x, mean, maxLag)
}

// Aggregate returns the aggregated process X^(m) of the paper:
// X^(m)_k = (X_{km-m+1} + ... + X_{km}) / m. The trailing partial block is
// dropped. Aggregate panics if m <= 0.
func Aggregate(x []float64, m int) []float64 {
	if m <= 0 {
		panic("stats: Aggregate with non-positive m")
	}
	nBlocks := len(x) / m
	out := make([]float64, nBlocks)
	for b := 0; b < nBlocks; b++ {
		var s float64
		for i := b * m; i < (b+1)*m; i++ {
			s += x[i]
		}
		out[b] = s / float64(m)
	}
	return out
}

// LinearFit fits y = slope*x + intercept by ordinary least squares and also
// returns the coefficient of determination R^2. It returns ErrEmpty when
// fewer than two points are supplied, and an error when all x are identical.
func LinearFit(x, y []float64) (slope, intercept, r2 float64, err error) {
	if len(x) != len(y) {
		return 0, 0, 0, errors.New("stats: LinearFit length mismatch")
	}
	n := len(x)
	if n < 2 {
		return 0, 0, 0, ErrEmpty
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("stats: LinearFit degenerate x")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return slope, intercept, r2, nil
}

// LogLogFit fits log10(y) = slope*log10(x) + intercept, skipping any pair
// with a non-positive coordinate. It is the fit used for variance-time and
// pox plots.
func LogLogFit(x, y []float64) (slope, intercept, r2 float64, err error) {
	if len(x) != len(y) {
		return 0, 0, 0, errors.New("stats: LogLogFit length mismatch")
	}
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log10(x[i]))
			ly = append(ly, math.Log10(y[i]))
		}
	}
	return LinearFit(lx, ly)
}

// Histogram is a fixed-width binned frequency count over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64 // range covered by the bins
	Counts []int   // one count per bin
	N      int     // total observations, including out-of-range ones
	Below  int     // observations < Lo
	Above  int     // observations >= Hi
}

// NewHistogram bins x into bins equal-width bins spanning [lo, hi).
// It panics if bins <= 0 or hi <= lo.
func NewHistogram(x []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram with non-positive bins")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for _, v := range x {
		h.N++
		switch {
		case v < lo:
			h.Below++
		case v >= hi:
			h.Above++
		default:
			idx := int((v - lo) / width)
			if idx >= bins { // guard rounding at the top edge
				idx = bins - 1
			}
			h.Counts[idx]++
		}
	}
	return h
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Frequencies returns the per-bin relative frequencies (counts divided by
// the total number of observations, including out-of-range ones).
func (h *Histogram) Frequencies() []float64 {
	out := make([]float64, len(h.Counts))
	if h.N == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.N)
	}
	return out
}

// ECDF is an empirical cumulative distribution function built from a sample.
// The zero value is not usable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the sample. It returns ErrEmpty for empty input
// and ErrNaN when the sample contains NaN (which would break the sorted-
// order invariant every query relies on). Infinities are allowed: they sort
// to the ends and behave as ordinary extreme observations.
func NewECDF(x []float64) (*ECDF, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	// After sorting, any NaN has been moved to the front (sort.Float64s
	// orders NaN before everything), so one check suffices.
	if math.IsNaN(s[0]) {
		return nil, ErrNaN
	}
	return &ECDF{sorted: s}, nil
}

// CDF returns the fraction of the sample <= v.
func (e *ECDF) CDF(v float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= v; we want
	// the count of values <= v.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > v })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the p-quantile of the sample for p in [0,1], using linear
// interpolation between order statistics (type-7, the common default).
// Values of p outside [0,1] are clamped; a NaN p yields NaN.
func (e *ECDF) Quantile(p float64) float64 {
	n := len(e.sorted)
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[n-1]
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	frac := h - float64(i)
	if i+1 >= n {
		return e.sorted[n-1]
	}
	return e.sorted[i]*(1-frac) + e.sorted[i+1]*frac
}

// Len returns the number of observations.
func (e *ECDF) Len() int { return len(e.sorted) }

// Sorted returns the underlying sorted sample. The caller must not modify it.
func (e *ECDF) Sorted() []float64 { return e.sorted }

// KolmogorovSmirnov returns the two-sample Kolmogorov-Smirnov statistic,
// the maximum absolute difference between the two empirical CDFs. It is the
// scale-free marginal-distance metric used to score how well a synthetic
// trace's marginal matches the empirical one.
func KolmogorovSmirnov(a, b []float64) (float64, error) {
	ea, err := NewECDF(a)
	if err != nil {
		return 0, err
	}
	eb, err := NewECDF(b)
	if err != nil {
		return 0, err
	}
	sa, sb := ea.Sorted(), eb.Sorted()
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		var v float64
		if sa[i] <= sb[j] {
			v = sa[i]
			i++
		} else {
			v = sb[j]
			j++
		}
		// Advance past duplicates of v in both samples.
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb)))
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// QQPairs returns n quantile pairs (q_a, q_b) for Q-Q plotting of sample a
// against sample b, at probabilities (i+0.5)/n. n must be positive.
func QQPairs(a, b []float64, n int) (qa, qb []float64, err error) {
	if n <= 0 {
		return nil, nil, errors.New("stats: QQPairs needs n > 0")
	}
	ea, err := NewECDF(a)
	if err != nil {
		return nil, nil, err
	}
	eb, err := NewECDF(b)
	if err != nil {
		return nil, nil, err
	}
	qa = make([]float64, n)
	qb = make([]float64, n)
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / float64(n)
		qa[i] = ea.Quantile(p)
		qb[i] = eb.Quantile(p)
	}
	return qa, qb, nil
}
