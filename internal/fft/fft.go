// Package fft implements an iterative radix-2 complex fast Fourier transform
// together with the real-sequence helpers the library needs: fast circular
// and linear autocovariance, and power spectral density estimation. Only
// power-of-two lengths are transformed directly; helpers pad as needed.
package fft

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrNotPowerOfTwo is returned when a transform is requested on a slice whose
// length is not a power of two.
var ErrNotPowerOfTwo = errors.New("fft: length is not a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// maxPowerOfTwo is the largest power of two representable in an int
// (2^62 on 64-bit platforms, 2^30 on 32-bit).
const maxPowerOfTwo = (int(^uint(0)>>1) >> 1) + 1

// NextPowerOfTwo returns the smallest power of two >= n (and >= 1). It
// panics when n exceeds the largest power-of-two int: the doubling loop
// would otherwise overflow through negative values and spin forever, and no
// caller can allocate a buffer that large anyway.
func NextPowerOfTwo(n int) int {
	if n > maxPowerOfTwo {
		panic("fft: NextPowerOfTwo overflow: no power-of-two int >= n")
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Forward computes the in-place forward DFT of x. len(x) must be a power of
// two. The transform is unnormalized: Inverse(Forward(x)) == x. Twiddle
// factors and the bit-reversal permutation come from a process-wide per-size
// cache (see tables), and the result is bit-identical to ForwardReference.
func Forward(x []complex128) error {
	n := len(x)
	if !IsPowerOfTwo(n) {
		return ErrNotPowerOfTwo
	}
	t := tablesFor(n)
	t.apply(x, t.fwdStages)
	return nil
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalization. len(x) must be a power of two. Like Forward it runs off the
// cached tables and is bit-identical to InverseReference.
func Inverse(x []complex128) error {
	n := len(x)
	if !IsPowerOfTwo(n) {
		return ErrNotPowerOfTwo
	}
	t := tablesFor(n)
	t.apply(x, t.invStages)
	d := complex(float64(n), 0)
	for i := range x {
		x[i] /= d
	}
	return nil
}

// referenceTransform performs the radix-2 Cooley–Tukey FFT in place with
// on-the-fly twiddles — the seed implementation, kept as the oracle for the
// tabled path.
func referenceTransform(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPowerOfTwo(n) {
		return ErrNotPowerOfTwo
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		angle := 2 * math.Pi / float64(length)
		if !inverse {
			angle = -angle
		}
		wl := cmplx.Rect(1, angle)
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length >> 1
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// ForwardReal computes the DFT of a real sequence, zero-padding to the next
// power of two at least as large as len(x). It returns the complex spectrum.
func ForwardReal(x []float64) []complex128 {
	n := NextPowerOfTwo(len(x))
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	// Length is a power of two by construction.
	if err := Forward(c); err != nil {
		panic("fft: internal padding error: " + err.Error())
	}
	return c
}

// Autocovariance computes the biased sample autocovariance of x at lags
// 0..maxLag using FFT-based linear correlation (zero padding to avoid
// circular wrap-around). The biased estimator divides by len(x) at every lag,
// matching the classical definition used in time-series analysis.
func Autocovariance(x []float64, maxLag int) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	return AutocovarianceKnownMean(x, mean, maxLag)
}

// AutocovarianceKnownMean is Autocovariance with an externally supplied mean.
// Subtracting the true process mean (when it is known, e.g. zero for a
// synthetic Gaussian background process) removes the substantial negative
// bias the sample-mean version suffers on long-range dependent series.
func AutocovarianceKnownMean(x []float64, mean float64, maxLag int) []float64 {
	n := len(x)
	if n == 0 || maxLag < 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	// Zero-pad to at least 2n to make circular correlation linear.
	m := NextPowerOfTwo(2 * n)
	c := make([]complex128, m)
	for i, v := range x {
		c[i] = complex(v-mean, 0)
	}
	if err := Forward(c); err != nil {
		panic("fft: internal padding error: " + err.Error())
	}
	for i := range c {
		re, im := real(c[i]), imag(c[i])
		c[i] = complex(re*re+im*im, 0)
	}
	if err := Inverse(c); err != nil {
		panic("fft: internal padding error: " + err.Error())
	}
	acov := make([]float64, maxLag+1)
	for k := 0; k <= maxLag; k++ {
		acov[k] = real(c[k]) / float64(n)
	}
	return acov
}

// Autocorrelation computes the sample autocorrelation of x at lags 0..maxLag
// (so the result has maxLag+1 entries, with result[0] == 1 for any
// non-constant series).
func Autocorrelation(x []float64, maxLag int) []float64 {
	return normalizeACF(Autocovariance(x, maxLag))
}

func normalizeACF(acov []float64) []float64 {
	if len(acov) == 0 {
		return nil
	}
	v := acov[0]
	if v == 0 {
		// Constant series: autocorrelation is undefined; return zeros past lag 0.
		out := make([]float64, len(acov))
		out[0] = 1
		return out
	}
	out := make([]float64, len(acov))
	for i, a := range acov {
		out[i] = a / v
	}
	return out
}

// Periodogram returns the raw periodogram I(f_j) of x at the Fourier
// frequencies f_j = j/n', j = 1..n'/2-1, where n' is the padded length.
// It returns parallel slices of frequencies and intensities. The periodogram
// is normalized as |DFT|^2 / (2*pi*n'), the convention used by
// periodogram-based Hurst estimation.
func Periodogram(x []float64) (freqs, intensity []float64) {
	n := len(x)
	if n < 4 {
		return nil, nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	centered := make([]float64, n)
	for i, v := range x {
		centered[i] = v - mean
	}
	spec := ForwardReal(centered)
	np := len(spec)
	half := np / 2
	freqs = make([]float64, 0, half-1)
	intensity = make([]float64, 0, half-1)
	for j := 1; j < half; j++ {
		re, im := real(spec[j]), imag(spec[j])
		freqs = append(freqs, 2*math.Pi*float64(j)/float64(np))
		intensity = append(intensity, (re*re+im*im)/(2*math.Pi*float64(np)))
	}
	return freqs, intensity
}
