// Package daviesharte implements the Davies–Harte circulant-embedding method
// for exact O(n log n) generation of stationary Gaussian processes with a
// given autocorrelation. It complements Hosking's O(n^2) method (package
// hosking): both are exact, so each validates the other, and Davies–Harte
// makes movie-length traces (hundreds of thousands of frames) practical.
//
// The method embeds the target covariance in a circulant matrix whose
// eigenvalues are the FFT of the extended autocorrelation; when every
// eigenvalue is non-negative the synthesis is exact. For autocorrelations
// whose minimal embedding is not positive semi-definite, NewPlan reports the
// negative mass so callers can decide whether the (tiny) truncation is
// acceptable.
package daviesharte

import (
	"errors"
	"fmt"
	"math"

	"vbrsim/internal/acf"
	"vbrsim/internal/fft"
	"vbrsim/internal/rng"
)

// ErrNotEmbeddable is returned when the circulant embedding has substantial
// negative eigenvalue mass and Options.AllowApprox is false.
var ErrNotEmbeddable = errors.New("daviesharte: circulant embedding is not positive semi-definite")

// Options configures plan construction.
type Options struct {
	// AllowApprox accepts embeddings with negative eigenvalues by clamping
	// them to zero. The resulting process is approximate.
	AllowApprox bool
	// Tolerance is the relative negative-eigenvalue mass accepted without
	// AllowApprox; default 1e-9.
	Tolerance float64
}

// Plan holds the precomputed eigenvalue square roots for sample generation.
// A Plan is immutable after construction and safe for concurrent use.
type Plan struct {
	n          int       // requested path length
	m          int       // circulant size (power of two, >= 2n)
	sqrtLambda []float64 // sqrt(eigenvalue / m), length m
	scale      []float64 // sqrtLambda[k] / sqrt(2) for k = 1..m/2-1
	weights    []float64 // per-bin half-spectrum scales, length m/2+1
}

// NewPlan builds a circulant embedding for paths of length n with the given
// autocorrelation model.
func NewPlan(model acf.Model, n int, opt Options) (*Plan, error) {
	if n <= 0 {
		return nil, errors.New("daviesharte: non-positive length")
	}
	if opt.Tolerance == 0 {
		opt.Tolerance = 1e-9
	}
	m := fft.NextPowerOfTwo(2 * n)
	// Extended autocorrelation on the circle: c_j = r(j) for j <= m/2,
	// mirrored for j > m/2. Using the true model beyond lag n (rather than
	// zero padding) keeps the embedding PSD for the monotone ACFs used here.
	c := make([]complex128, m)
	half := m / 2
	for j := 0; j <= half; j++ {
		c[j] = complex(model.At(j), 0)
	}
	for j := half + 1; j < m; j++ {
		c[j] = c[m-j]
	}
	// The eigenvalue transform runs once per plan, so it takes the
	// reference recurrence (bit-identical to fft.Forward): Forward would
	// leave m-point twiddle tables in the process-wide cache that no path
	// generated from this plan reads.
	if err := fft.ForwardReference(c); err != nil {
		return nil, err
	}
	sqrtLambda := make([]float64, m)
	var negMass, totMass float64
	for i, v := range c {
		lam := real(v)
		totMass += math.Abs(lam)
		if lam < 0 {
			negMass += -lam
			lam = 0
		}
		sqrtLambda[i] = math.Sqrt(lam / float64(m))
	}
	rel := 0.0
	if totMass > 0 {
		rel = negMass / totMass
	}
	if rel > opt.Tolerance && !opt.AllowApprox {
		return nil, fmt.Errorf("%w: relative negative eigenvalue mass %.3g", ErrNotEmbeddable, rel)
	}
	// Precompute the interior-bin scale sqrtLambda[k]/sqrt(2). Multiplying a
	// draw by the precomputed product is bit-identical to the historical
	// sqrtLambda[k] * invSqrt2 * draw (same left-to-right association), so
	// PathInto stays on the golden traces.
	invSqrt2 := 1 / math.Sqrt2
	scale := make([]float64, m/2)
	for k := 1; k < m/2; k++ {
		scale[k] = sqrtLambda[k] * invSqrt2
	}
	// weights is the same scale schedule laid out as one dense half-spectrum
	// vector for the fused synthesis kernel: the kernel's inline multiply
	// weights[k]·draw is the exact multiply fillSpectrum would have performed,
	// so PathRealInto keeps its outputs bit-for-bit.
	weights := make([]float64, m/2+1)
	weights[0] = sqrtLambda[0]
	weights[m/2] = sqrtLambda[m/2]
	copy(weights[1:m/2], scale[1:])
	return &Plan{n: n, m: m, sqrtLambda: sqrtLambda, scale: scale, weights: weights}, nil
}

// Len returns the path length the plan produces.
func (p *Plan) Len() int { return p.n }

// Scratch holds the reusable work buffers for PathInto and PathRealInto. The
// zero value is ready to use; buffers grow on demand and are retained, so a
// Scratch reused with one plan performs no steady-state allocations. A
// Scratch must not be shared between concurrent calls.
type Scratch struct {
	a []complex128
	z []complex128
}

// grow sizes the buffers for what the caller reads: a holds aLen spectrum
// bins (PathInto transforms the full spectrum, m bins; PathRealInto only the
// half-spectrum, m/2+1) and z holds zLen (PathRealInto's half-length
// synthesis scratch, m/2; PathInto uses none). A Scratch that only serves
// PathRealInto so holds m+1 bins rather than 3m/2: 256 KiB, not 384 KiB, at
// the block engine's m = 16384.
func (s *Scratch) grow(aLen, zLen int) {
	if cap(s.a) < aLen {
		s.a = make([]complex128, aLen)
	}
	if cap(s.z) < zLen {
		s.z = make([]complex128, zLen)
	}
}

// fillSpectrum draws the Hermitian-symmetric Gaussian half-spectrum into
// a[0..m/2] using exactly the historical draw order of Path: the zero bin,
// the Nyquist bin, then (re, im) pairs for k = 1..m/2-1. The pairs come from
// one batched rng.NormPairs draw, bit-identical to the per-draw loop, and are
// scaled in place by the same multiply the loop performed.
func (p *Plan) fillSpectrum(a []complex128, r *rng.Source) {
	h := p.m / 2
	a[0] = complex(p.sqrtLambda[0]*r.Norm(), 0)
	a[h] = complex(p.sqrtLambda[h]*r.Norm(), 0)
	pairs := a[1:h]
	r.NormPairs(pairs)
	scale := p.scale[1:h]
	for k, z := range pairs {
		pairs[k] = complex(scale[k]*real(z), scale[k]*imag(z))
	}
}

// PathInto fills dst[0:n] with one sample path, bit-identical to Path (same
// draw order, same floating-point schedule) but without per-call allocations:
// all work happens in s, which is allocated on first use and reused after.
// A nil s allocates a temporary scratch. len(dst) must be at least n.
func (p *Plan) PathInto(dst []float64, s *Scratch, r *rng.Source) {
	if s == nil {
		s = &Scratch{}
	}
	m := p.m
	s.grow(m, 0)
	a := s.a[:m]
	p.fillSpectrum(a, r)
	for k := 1; k < m/2; k++ {
		v := a[k]
		a[m-k] = complex(real(v), -imag(v))
	}
	if err := fft.Forward(a); err != nil {
		panic("daviesharte: internal FFT error: " + err.Error())
	}
	out := dst[:p.n]
	for i := range out {
		out[i] = real(a[i])
	}
}

// fillRawSpectrum draws the half-spectrum normal components unscaled, in
// exactly fillSpectrum's draw order. The per-bin √(λ_k/m) scales are applied
// inside the fused synthesis kernel instead (fft.HermitianRealScaled), which
// performs the identical multiplies — so fused synthesis stays bit-identical
// to scaling at fill time while never materializing the scaled spectrum.
func (p *Plan) fillRawSpectrum(a []complex128, r *rng.Source) {
	h := p.m / 2
	a[0] = complex(r.Norm(), 0)
	a[h] = complex(r.Norm(), 0)
	r.NormPairs(a[1:h])
}

// PathRealInto is PathInto computed through the packed real-input FFT: the
// Hermitian half-spectrum is synthesized with one complex transform of length
// m/2 instead of m, roughly halving the FFT work, with the Davies–Harte
// spectrum scales folded into the kernel's first pass so the scaled spectrum
// is never stored. The normal draws and their order are identical to Path;
// only the transform's rounding differs, so results agree with Path to
// floating-point accuracy (~1e-10 absolute for the path lengths used here)
// but are not bit-identical. Golden-pinned callers use PathInto; replication
// loops use this.
func (p *Plan) PathRealInto(dst []float64, s *Scratch, r *rng.Source) {
	if s == nil {
		s = &Scratch{}
	}
	h := p.m / 2
	s.grow(h+1, h)
	a := s.a[:h+1]
	p.fillRawSpectrum(a, r)
	if err := fft.HermitianRealScaled(dst[:p.n], a, p.weights, s.z[:h]); err != nil {
		panic("daviesharte: internal FFT error: " + err.Error())
	}
}

// Path generates one sample path of length n (zero mean, unit variance,
// target autocorrelation). It is PathInto plus the output allocation; callers
// on a hot loop should hold a Scratch and call PathInto directly.
func (p *Plan) Path(r *rng.Source) []float64 {
	out := make([]float64, p.n)
	p.PathInto(out, nil, r)
	return out
}

// PathReference is the seed implementation of Path — per-call allocations and
// the on-the-fly-twiddle reference FFT. It is retained as the ablation
// baseline for the bench suite and as an independent oracle for PathInto's
// bit-identity test.
func (p *Plan) PathReference(r *rng.Source) []float64 {
	m := p.m
	a := make([]complex128, m)
	// Hermitian-symmetric Gaussian spectrum.
	a[0] = complex(p.sqrtLambda[0]*r.Norm(), 0)
	a[m/2] = complex(p.sqrtLambda[m/2]*r.Norm(), 0)
	invSqrt2 := 1 / math.Sqrt2
	for k := 1; k < m/2; k++ {
		re := p.sqrtLambda[k] * invSqrt2 * r.Norm()
		im := p.sqrtLambda[k] * invSqrt2 * r.Norm()
		a[k] = complex(re, im)
		a[m-k] = complex(re, -im)
	}
	if err := fft.ForwardReference(a); err != nil {
		panic("daviesharte: internal FFT error: " + err.Error())
	}
	out := make([]float64, p.n)
	for i := range out {
		out[i] = real(a[i])
	}
	return out
}
