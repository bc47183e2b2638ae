package fft

import (
	"encoding/binary"
	"math"
	"testing"

	"vbrsim/internal/rng"
)

// TestRealForwardParity checks the packed real-input FFT against the complex
// Forward on random inputs across every power-of-two size from 2 to 2^16.
func TestRealForwardParity(t *testing.T) {
	r := rng.New(101)
	// 2^17 samples means a half-length of 2^16, which crosses the stageTile
	// boundary with global middle stages between the tiled stages and the
	// fused final stage.
	max := 1 << 17
	if testing.Short() {
		max = 1 << 13
	}
	for m := 2; m <= max; m <<= 1 {
		x := make([]float64, m)
		for i := range x {
			x[i] = r.Norm()
		}
		want := make([]complex128, m)
		for i, v := range x {
			want[i] = complex(v, 0)
		}
		if err := Forward(want); err != nil {
			t.Fatal(err)
		}
		h := m / 2
		a := make([]complex128, h+1)
		if err := RealForward(a, x); err != nil {
			t.Fatal(err)
		}
		// Scale-aware tolerance: spectrum entries are O(sqrt(m)).
		tol := 1e-12 * math.Sqrt(float64(m)) * 10
		for k := 0; k <= h; k++ {
			if d := cAbs(a[k] - want[k]); d > tol {
				t.Fatalf("m=%d: RealForward[%d] = %v, Forward = %v (|diff| %g > %g)", m, k, a[k], want[k], d, tol)
			}
		}
	}
}

func cAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// TestHermitianRealParity feeds random Hermitian half-spectra through
// HermitianReal and compares with the full complex Forward of the Hermitian
// extension.
func TestHermitianRealParity(t *testing.T) {
	r := rng.New(55)
	// h = 2^16 crosses the stageTile boundary: tiled first passes plus global
	// radix-2² double stages.
	max := 1 << 16
	if testing.Short() {
		max = 1 << 12
	}
	for h := 1; h <= max; h <<= 1 {
		m := 2 * h
		a := make([]complex128, h+1)
		a[0] = complex(r.Norm(), 0)
		a[h] = complex(r.Norm(), 0)
		for k := 1; k < h; k++ {
			a[k] = complex(r.Norm(), r.Norm())
		}
		full := make([]complex128, m)
		copy(full, a)
		for k := 1; k < h; k++ {
			full[m-k] = complex(real(a[k]), -imag(a[k]))
		}
		if err := Forward(full); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, m)
		z := make([]complex128, h)
		if err := HermitianReal(out, a, z); err != nil {
			t.Fatal(err)
		}
		tol := 1e-12 * float64(m) * 10
		for p := 0; p < m; p++ {
			if d := math.Abs(out[p] - real(full[p])); d > tol {
				t.Fatalf("h=%d: HermitianReal[%d] = %v, Forward = %v (diff %g)", h, p, out[p], real(full[p]), d)
			}
			if im := math.Abs(imag(full[p])); im > tol {
				t.Fatalf("h=%d: Hermitian spectrum gave non-real output at %d: %v", h, p, full[p])
			}
		}
		// A truncated output prefix matches the full synthesis.
		short := make([]float64, m/2+1)
		if err := HermitianReal(short, a, z); err != nil {
			t.Fatal(err)
		}
		for p := range short {
			if short[p] != out[p] {
				t.Fatalf("h=%d: truncated synthesis diverges at %d", h, p)
			}
		}
	}
}

func TestRealForwardErrors(t *testing.T) {
	if err := RealForward(make([]complex128, 4), make([]float64, 6)); err != ErrNotPowerOfTwo {
		t.Fatalf("non-power-of-two length: got %v", err)
	}
	if err := RealForward(make([]complex128, 2), make([]float64, 8)); err != ErrBadLength {
		t.Fatalf("short spectrum buffer: got %v", err)
	}
	if err := HermitianReal(make([]float64, 4), make([]complex128, 4), make([]complex128, 3)); err != ErrNotPowerOfTwo {
		t.Fatalf("non-power-of-two half length: got %v", err)
	}
	if err := HermitianReal(make([]float64, 4), make([]complex128, 3), make([]complex128, 1)); err != ErrBadLength {
		t.Fatalf("short scratch: got %v", err)
	}
	if err := HermitianReal(make([]float64, 9), make([]complex128, 5), make([]complex128, 4)); err != ErrBadLength {
		t.Fatalf("oversized output: got %v", err)
	}
}

// TestAutocovarianceIntoMatches compares the real-FFT autocovariance against
// the complex-path original, including odd lengths and clamped lags.
func TestAutocovarianceIntoMatches(t *testing.T) {
	r := rng.New(17)
	var s Scratch
	for _, n := range []int{1, 2, 3, 7, 64, 100, 1023, 4096} {
		x := make([]float64, n)
		mean := 0.0
		for i := range x {
			x[i] = r.Norm() + 0.3
			mean += x[i]
		}
		mean /= float64(n)
		for _, maxLag := range []int{0, 1, n / 2, n - 1, n + 5} {
			want := AutocovarianceKnownMean(x, mean, maxLag)
			dst := make([]float64, maxLag+1)
			got := AutocovarianceKnownMeanInto(dst, x, mean, &s)
			if len(got) != len(want) {
				t.Fatalf("n=%d maxLag=%d: len %d, want %d", n, maxLag, len(got), len(want))
			}
			for k := range got {
				if d := math.Abs(got[k] - want[k]); d > 1e-10*(1+math.Abs(want[k])) {
					t.Fatalf("n=%d lag=%d: got %v want %v", n, k, got[k], want[k])
				}
			}
		}
	}
}

// sameBits reports whether two complex values are bitwise identical.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestRealForwardBitIdentical pins the fused RealForward to the unfused
// three-pass reference bit-for-bit at every power-of-two size through the
// tile boundary: the fused pack/scatter/first-stage and final-stage/unpack
// kernels must not change a single ulp.
func TestRealForwardBitIdentical(t *testing.T) {
	r := rng.New(311)
	max := 1 << 17
	if testing.Short() {
		max = 1 << 13
	}
	for m := 1; m <= max; m <<= 1 {
		x := make([]float64, m)
		for i := range x {
			x[i] = r.Norm()
		}
		h := m / 2
		got := make([]complex128, h+1)
		want := make([]complex128, h+1)
		if err := RealForward(got, x); err != nil {
			t.Fatal(err)
		}
		if err := RealForwardReference(want, x); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if !sameBits(got[k], want[k]) {
				t.Fatalf("m=%d: RealForward[%d] = %v, reference = %v (not bit-identical)", m, k, got[k], want[k])
			}
		}
	}
}

// TestHermitianRealScaledBitIdentical checks that folding the per-bin weights
// into the synthesis kernel's first pass yields exactly the bits that scaling
// the spectrum first would: the fused multiply w[k]·a[k] is the same multiply
// a pre-scaling pass performs.
func TestHermitianRealScaledBitIdentical(t *testing.T) {
	r := rng.New(313)
	max := 1 << 16
	if testing.Short() {
		max = 1 << 12
	}
	for h := 1; h <= max; h <<= 2 {
		a := make([]complex128, h+1)
		w := make([]float64, h+1)
		a[0] = complex(r.Norm(), 0)
		a[h] = complex(r.Norm(), 0)
		for k := 1; k < h; k++ {
			a[k] = complex(r.Norm(), r.Norm())
		}
		for k := range w {
			w[k] = math.Abs(r.Norm()) + 0.1
		}
		scaled := make([]complex128, h+1)
		for k := range a {
			scaled[k] = complex(w[k]*real(a[k]), w[k]*imag(a[k]))
		}
		z := make([]complex128, h)
		want := make([]float64, 2*h)
		if err := HermitianReal(want, scaled, z); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 2*h)
		if err := HermitianRealScaled(got, a, w, z); err != nil {
			t.Fatal(err)
		}
		for p := range want {
			if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
				t.Fatalf("h=%d: HermitianRealScaled[%d] = %v, pre-scaled = %v (not bit-identical)", h, p, got[p], want[p])
			}
		}
	}
}

// TestHermitianRealConjProductBitIdentical checks the fused conjugated
// product spectrum (the streamblock stitch) against materializing
// conj(s[k]·g[k]) first, bit-for-bit.
func TestHermitianRealConjProductBitIdentical(t *testing.T) {
	r := rng.New(317)
	max := 1 << 16
	if testing.Short() {
		max = 1 << 12
	}
	for h := 1; h <= max; h <<= 2 {
		s := make([]complex128, h+1)
		g := make([]complex128, h+1)
		for k := range s {
			s[k] = complex(r.Norm(), r.Norm())
			g[k] = complex(r.Norm(), r.Norm())
		}
		prod := make([]complex128, h+1)
		for k := range s {
			v := s[k] * g[k]
			prod[k] = complex(real(v), -imag(v))
		}
		z := make([]complex128, h)
		want := make([]float64, 2*h)
		if err := HermitianReal(want, prod, z); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 2*h)
		if err := HermitianRealConjProduct(got, s, g, z); err != nil {
			t.Fatal(err)
		}
		for p := range want {
			if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
				t.Fatalf("h=%d: HermitianRealConjProduct[%d] = %v, materialized = %v (not bit-identical)", h, p, got[p], want[p])
			}
		}
	}
}

func TestHermitianRealVariantErrors(t *testing.T) {
	out := make([]float64, 4)
	a := make([]complex128, 3)
	z := make([]complex128, 2)
	if err := HermitianRealScaled(out, a, make([]float64, 2), z); err != ErrBadLength {
		t.Fatalf("short weights: got %v", err)
	}
	if err := HermitianRealScaled(out, make([]complex128, 4), make([]float64, 4), z); err != ErrNotPowerOfTwo {
		t.Fatalf("non-power-of-two half length: got %v", err)
	}
	if err := HermitianRealConjProduct(out, a, make([]complex128, 2), z); err != ErrBadLength {
		t.Fatalf("short second spectrum: got %v", err)
	}
	if err := HermitianRealConjProduct(out, a, a, make([]complex128, 1)); err != ErrBadLength {
		t.Fatalf("short scratch: got %v", err)
	}
}

// TestScratchMixedSizes reuses one Scratch across interleaved transform
// sizes, checking each result is bitwise the result a fresh Scratch
// produces: buffer growth and stale contents from another size must not
// leak into the output.
func TestScratchMixedSizes(t *testing.T) {
	r := rng.New(29)
	var shared Scratch
	sizes := []int{64, 4096, 3, 1000, 64, 1, 511, 4096, 2}
	for _, n := range sizes {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Norm()
		}
		dst := make([]float64, n)
		got := AutocovarianceKnownMeanInto(dst, x, 0.1, &shared)
		var fresh Scratch
		want := AutocovarianceKnownMeanInto(make([]float64, n), x, 0.1, &fresh)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len %d, want %d", n, len(got), len(want))
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("n=%d lag=%d: shared scratch %v, fresh scratch %v", n, k, got[k], want[k])
			}
		}
	}
}

// FuzzRealForwardVsReference feeds arbitrary sample bytes through the fused
// RealForward and the unfused reference, requiring bit-identical spectra.
func FuzzRealForwardVsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	seed := make([]byte, 0, 64*8)
	r := rng.New(97)
	for i := 0; i < 64; i++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Norm()))
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		m := 1
		for 2*m <= n && 2*m <= 1<<12 {
			m <<= 1
		}
		x := make([]float64, m)
		for i := range x {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(i) // keep comparisons meaningful; NaN != NaN bitwise is fine either way
			}
			x[i] = v
		}
		h := m / 2
		got := make([]complex128, h+1)
		want := make([]complex128, h+1)
		if err := RealForward(got, x); err != nil {
			t.Fatal(err)
		}
		if err := RealForwardReference(want, x); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if !sameBits(got[k], want[k]) {
				t.Fatalf("m=%d: fused[%d] = %v, reference = %v (not bit-identical)", m, k, got[k], want[k])
			}
		}
	})
}

// TestRealPathZeroAlloc locks in the zero-steady-state-allocation contract of
// the scratch-based real-FFT helpers.
func TestRealPathZeroAlloc(t *testing.T) {
	r := rng.New(23)
	x := make([]float64, 1024)
	for i := range x {
		x[i] = r.Norm()
	}
	var s Scratch
	dst := make([]float64, 201)
	AutocovarianceKnownMeanInto(dst, x, 0, &s) // warm scratch + tables
	allocs := testing.AllocsPerRun(20, func() {
		AutocovarianceKnownMeanInto(dst, x, 0, &s)
	})
	if allocs != 0 {
		t.Fatalf("AutocovarianceKnownMeanInto allocates %v/op at steady state, want 0", allocs)
	}

	a := make([]complex128, len(x)/2+1)
	if err := RealForward(a, x); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if err := RealForward(a, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RealForward allocates %v/op at steady state, want 0", allocs)
	}
}

// TestScatterOrder runs each of the three pair-rotation scatters in its
// production (blocked) walk and in the natural order, span = 1, over the
// same inputs and a z prefilled with the same NaN-free junk, for every
// h = 2..2^16, and requires the same bits everywhere in z: the blocked walk
// must visit every pair once and compute it the same way.
func TestScatterOrder(t *testing.T) {
	r := rng.New(23)
	for h := 2; h <= 1<<16; h <<= 1 {
		tb := tablesFor(h)
		a := make([]complex128, h+1)
		g := make([]complex128, h+1)
		w := make([]float64, h+1)
		for k := range a {
			a[k] = complex(r.Norm(), r.Norm())
			g[k] = complex(r.Norm(), r.Norm())
			w[k] = 1 + r.Float64()
		}
		junk := make([]complex128, h)
		for i := range junk {
			junk[i] = complex(float64(i), -float64(i))
		}
		for _, sc := range []struct {
			name string
			run  func(z []complex128, span int)
		}{
			{"plain", func(z []complex128, span int) { hermitianScatter(z, a, tb, span) }},
			{"scaled", func(z []complex128, span int) { hermitianScatterScaled(z, a, w, tb, span) }},
			{"conj-product", func(z []complex128, span int) { hermitianScatterConjProduct(z, a, g, tb, span) }},
		} {
			want := append([]complex128(nil), junk...)
			got := append([]complex128(nil), junk...)
			sc.run(want, 1)
			sc.run(got, scatterSpan(h))
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("%s h=%d: z[%d] = %v blocked, %v natural order", sc.name, h, i, got[i], want[i])
				}
			}
		}
	}
}
