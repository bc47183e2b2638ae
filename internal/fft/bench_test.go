package fft

import (
	"testing"

	"vbrsim/internal/rng"
)

// FFT ablations at the Davies-Harte circulant size of a 4096-frame path:
// on-the-fly twiddles vs cached tables (bit-identical), the packed
// real-input forward transform, and the fused inverse synthesis kernel.

const fftLen = 8192

// BenchmarkFFTForwardReference runs the complex forward FFT with twiddles
// recomputed on the fly (the pre-table baseline).
func BenchmarkFFTForwardReference(b *testing.B) {
	x := benchSpectrum(fftLen)
	buf := make([]complex128, fftLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := ForwardReference(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTForwardTabled runs the same transform through the per-size
// cached twiddle and bit-reversal tables (bit-identical output).
func BenchmarkFFTForwardTabled(b *testing.B) {
	x := benchSpectrum(fftLen)
	buf := make([]complex128, fftLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := Forward(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTRealForward computes the half-spectrum of a real input by
// packing it into one complex FFT of half the length.
func BenchmarkFFTRealForward(b *testing.B) {
	x := make([]float64, fftLen)
	r := rng.New(3)
	for i := range x {
		x[i] = r.Norm()
	}
	a := make([]complex128, fftLen/2+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RealForward(a, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTHermitianReal runs the fused inverse half-spectrum kernel
// (the Davies-Harte synthesis back end): Hermitian scatter + radix-2²
// inverse stages + unpack in one pass, with cache-blocked tiles above
// stageTile.
func BenchmarkFFTHermitianReal(b *testing.B) {
	h := fftLen / 2
	a := benchSpectrum(h + 1)
	// The kernel requires a genuinely Hermitian-representable input:
	// real DC and Nyquist bins.
	a[0] = complex(real(a[0]), 0)
	a[h] = complex(real(a[h]), 0)
	out := make([]float64, fftLen)
	z := make([]complex128, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := HermitianReal(out, a, z); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSpectrum(n int) []complex128 {
	r := rng.New(2)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Norm(), r.Norm())
	}
	return x
}
