package fft

import (
	"errors"
	"unsafe"
)

// ErrBadLength is returned by the real-transform helpers when a buffer does
// not satisfy the documented length contract.
var ErrBadLength = errors.New("fft: buffer length does not match transform size")

// Scratch holds reusable buffers for the zero-allocation real-FFT helpers.
// The zero value is ready to use; buffers grow on demand and are retained
// across calls, so a Scratch reused at a steady size performs no allocations.
// A Scratch must not be shared between concurrent calls.
type Scratch struct {
	a []complex128
	z []complex128
}

// buffers returns the two work arrays sized for half-length h: a of length
// h+1 (half-spectrum) and z of length h (packed samples).
func (s *Scratch) buffers(h int) (a, z []complex128) {
	if cap(s.a) < h+1 {
		s.a = make([]complex128, h+1)
	}
	if cap(s.z) < h {
		s.z = make([]complex128, h)
	}
	return s.a[:h+1], s.z[:h]
}

// RealForward computes the half-spectrum forward DFT of the real sequence x:
// a[k] for k = 0..h with h = len(x)/2 receives the same values Forward would
// produce in positions 0..h (the remaining positions follow by Hermitian
// symmetry and are not stored). len(x) must be a power of two and len(a) at
// least h+1. The transform packs adjacent sample pairs into one complex FFT
// of half the length, roughly halving the work of the complex path; the
// packing, permutation, and Hermitian unpack are fused into the first and
// last butterfly stages (see realForwardFused), bit-identical to the unfused
// RealForwardReference.
func RealForward(a []complex128, x []float64) error {
	m := len(x)
	if !IsPowerOfTwo(m) {
		return ErrNotPowerOfTwo
	}
	h := m / 2
	if len(a) < h+1 {
		return ErrBadLength
	}
	if m == 1 {
		a[0] = complex(x[0], 0)
		return nil
	}
	realForwardFused(a[:h+1], x, tablesFor(h))
	return nil
}

// RealForwardReference is the unfused oracle for RealForward: explicit pair
// packing, the half-length reference FFT, then the Hermitian unpack as a
// separate pass — the three passes the fused kernel collapses. RealForward
// must stay bit-identical to it (ForwardReference is itself bit-identical to
// the tabled transform the pre-fusion implementation used).
func RealForwardReference(a []complex128, x []float64) error {
	m := len(x)
	if !IsPowerOfTwo(m) {
		return ErrNotPowerOfTwo
	}
	h := m / 2
	if len(a) < h+1 {
		return ErrBadLength
	}
	if m == 1 {
		a[0] = complex(x[0], 0)
		return nil
	}
	for j := 0; j < h; j++ {
		a[j] = complex(x[2*j], x[2*j+1])
	}
	if err := ForwardReference(a[:h]); err != nil {
		return err
	}
	realUnpack(a[:h+1], tablesFor(h))
	return nil
}

// realForwardFused computes the half-spectrum of the 2h real samples in x
// into a (len(a) == h+1, h == t.n >= 1) as one fused pipeline:
//
//   - The pair packing z_j = (x[2j], x[2j+1]) is folded into the bit-reversal
//     scatter and the length-2 butterfly stage. For even i, rev[i+1] equals
//     rev[i]+h/2 (the low input bit reverses to the high output bit), so the
//     butterfly at positions (i, i+1) combines z_r and z_{r+h/2} with
//     r = rev[i] — both read straight out of x, never materialized.
//   - Middle stages run through the shared cache-tiled stage loops.
//   - The final butterfly stage is fused with the Hermitian unpack
//     (realForwardFinish), so Z is never stored either.
//
// Pack+scatter fusion is pure data movement and the butterfly arithmetic is
// untouched, so the result is bit-identical to the three-pass reference.
func realForwardFused(a []complex128, x []float64, t *tables) {
	h := t.n
	if h == 1 {
		a[0] = complex(x[0], x[1])
	} else {
		rev := t.rev
		for i := 0; i < h; i += 2 {
			r := int(rev[i])
			u := complex(x[2*r], x[2*r+1])
			v := complex(x[2*r+h], x[2*r+h+1])
			a[i], a[i+1] = u+v, u-v
		}
	}
	realForwardFinish(a, t)
}

// realForwardPadded is realForwardFused for the zero-padded autocovariance
// pack: element j of the packed sequence is x[j]-mean for j < len(x) and 0
// past the end. Bit-identical to packing into a zero-filled buffer first —
// the zeros flow through the same butterflies either way.
func realForwardPadded(a []complex128, x []float64, mean float64, t *tables) {
	h := t.n
	if h == 1 {
		a[0] = padAt(x, 0, mean)
	} else {
		rev := t.rev
		for i := 0; i < h; i += 2 {
			r := 2 * int(rev[i])
			u := padAt(x, r, mean)
			v := padAt(x, r+h, mean)
			a[i], a[i+1] = u+v, u-v
		}
	}
	realForwardFinish(a, t)
}

// padAt reads the packed pair starting at sample index j of the centered,
// zero-padded sequence.
func padAt(x []float64, j int, mean float64) complex128 {
	if j+1 < len(x) {
		return complex(x[j]-mean, x[j+1]-mean)
	}
	if j < len(x) {
		return complex(x[j]-mean, 0)
	}
	return 0
}

// realForwardFinish runs the middle butterfly stages (cache-tiled) over the
// packed spectrum in a[:h] and then the final stage fused with the Hermitian
// unpack. The final stage's butterfly k yields Z[k] and Z[h/2+k]; the unpack
// pair (k, h-k) needs Z[k] and Z[h-k], which is the "-" output of butterfly
// h/2-k — so butterflies k and h/2-k are processed together and their four
// outputs feed the unpack pairs (k, h-k) and (h/2-k, h/2+k) while still in
// registers. Butterfly 0 feeds the DC/Nyquist unpack and the conjugated
// midpoint; butterfly h/4 is self-paired. Per-butterfly and per-pair
// arithmetic is ordered exactly as the separate stage + realUnpack passes,
// so the fusion is bit-exact.
func realForwardFinish(a []complex128, t *tables) {
	h := t.n
	stages := t.fwdStages
	if h >= 8 {
		tile := h
		if tile > stageTile {
			tile = stageTile
		}
		if tile < h {
			for lo := 0; lo < h; lo += tile {
				stageRange(a[lo:lo+tile], stages, 2, tile)
			}
			stageRange(a[:h], stages, tile, h/2)
		} else {
			stageRange(a[:h], stages, 2, h/2)
		}
	}
	switch {
	case h >= 4:
		h2, h4 := h>>1, h>>2
		stage := stages[len(stages)-1]
		rot := t.rotation()
		v0 := a[h2] * stage[0]
		z0 := a[0] + v0
		zn := a[0] - v0 // Z[h/2], the self-conjugate midpoint
		a[h2] = complex(real(zn), -imag(zn))
		a[h] = complex(real(z0)-imag(z0), 0)
		a[0] = complex(real(z0)+imag(z0), 0)
		for k := 1; k < h4; k++ {
			j := h2 - k
			uk, vk := a[k], a[k+h2]*stage[k]
			zk, zka := uk+vk, uk-vk // Z[k], Z[h/2+k]
			uj, vj := a[j], a[j+h2]*stage[j]
			zj, zja := uj+vj, uj-vj // Z[h/2-k], Z[h-k]
			a[k], a[h-k] = unpackPair(zk, zja, rot[k])
			a[j], a[h2+k] = unpackPair(zj, zka, rot[j])
		}
		um, vm := a[h4], a[h4+h2]*stage[h4]
		a[h4], a[h-h4] = unpackPair(um+vm, um-vm, rot[h4])
	case h == 2:
		z0, z1 := a[0], a[1]
		a[0] = complex(real(z0)+imag(z0), 0)
		a[2] = complex(real(z0)-imag(z0), 0)
		a[1] = complex(real(z1), -imag(z1))
	default: // h == 1
		z0 := a[0]
		a[0] = complex(real(z0)+imag(z0), 0)
		a[1] = complex(real(z0)-imag(z0), 0)
	}
}

// unpackPair applies the Hermitian unpack identity to the final-stage
// butterfly outputs zk = Z[k] and zm = Z[h-k] with rk = rot[k], ordered
// exactly as realUnpack's loop body so the fused path stays bit-identical.
func unpackPair(zk, zm, rk complex128) (ak, am complex128) {
	czm := complex(real(zm), -imag(zm))
	czk := complex(real(zk), -imag(zk))
	f := complex(real(rk), -imag(rk)) // conj(rot[k]) = -(i/2)ω^k
	ak = (zk+czm)*complex(0.5, 0) + f*(zk-czm)
	am = (zm+czk)*complex(0.5, 0) + rk*(zm-czk)
	return ak, am
}

// realUnpack converts the packed half-length spectrum Z (in a[:h]) into the
// half-spectrum A (in a[:h+1]) of the underlying real sequence, in place:
//
//	A[k] = (Z[k]+conj(Z[h-k]))/2 - (i/2)·ω^k·(Z[k]-conj(Z[h-k])), ω = e^{-2πi/m}
//
// using f[h-k] = conj(f[k]) for the mirror factor, so only the table of
// f[k] = conj(rot[k]) for k ≤ h/2 is needed. Retained as the reference
// unpack pass; the production path runs it fused into the final butterfly
// stage (realForwardFinish).
func realUnpack(a []complex128, t *tables) {
	h := len(a) - 1
	rot := t.rotation()
	z0 := a[0]
	a[0] = complex(real(z0)+imag(z0), 0)
	a[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k < h-k; k++ {
		zk, zm := a[k], a[h-k]
		czm := complex(real(zm), -imag(zm))
		czk := complex(real(zk), -imag(zk))
		f := complex(real(rot[k]), -imag(rot[k])) // conj(rot[k]) = -(i/2)ω^k
		a[k] = (zk+czm)*complex(0.5, 0) + f*(zk-czm)
		a[h-k] = (zm+czk)*complex(0.5, 0) + rot[k]*(zm-czk)
	}
	if h >= 2 {
		mid := a[h/2]
		a[h/2] = complex(real(mid), -imag(mid))
	}
}

// HermitianReal synthesizes a real sequence from its Hermitian half-spectrum:
// with m = 2(len(a)-1), it writes
//
//	out[p] = Σ_{k=0}^{m-1} Ā[k]·e^{-2πipk/m},  p = 0..len(out)-1
//
// where Ā is the Hermitian extension of a (Ā[m-k] = conj(a[k])). This is the
// synthesis Davies–Harte needs: the real part of the full forward DFT of a
// Hermitian spectrum, computed with one complex FFT of length m/2 instead of
// length m. The imaginary parts of a[0] and a[len(a)-1] are ignored (they
// must be zero for a Hermitian spectrum). a is left unmodified; z is scratch
// of length at least len(a)-1; len(out) must not exceed m. len(a)-1 must be a
// power of two.
func HermitianReal(out []float64, a, z []complex128) error {
	h := len(a) - 1
	if !IsPowerOfTwo(h) {
		return ErrNotPowerOfTwo
	}
	if len(z) < h || len(out) > 2*h {
		return ErrBadLength
	}
	t := tablesFor(h)
	hermitianScatter(z[:h], a, t, scatterSpan(h))
	hermitianKernel(out, z[:h], t)
	return nil
}

// HermitianRealScaled is HermitianReal over the spectrum w[k]·a[k] without
// materializing it: the real per-bin weights (for Davies–Harte, the
// √(n·λ_k) spectrum scales) are folded into the kernel's pair-rotation
// first pass. The products w[k]·Re a[k] and w[k]·Im a[k] are the same
// multiplies a pre-scaling pass would perform, so the output is
// bit-identical to scaling first and calling HermitianReal. len(w) must be
// at least len(a).
func HermitianRealScaled(out []float64, a []complex128, w []float64, z []complex128) error {
	h := len(a) - 1
	if !IsPowerOfTwo(h) {
		return ErrNotPowerOfTwo
	}
	if len(z) < h || len(out) > 2*h || len(w) < h+1 {
		return ErrBadLength
	}
	t := tablesFor(h)
	hermitianScatterScaled(z[:h], a, w, t, scatterSpan(h))
	hermitianKernel(out, z[:h], t)
	return nil
}

// HermitianRealConjProduct is HermitianReal over the spectrum
// conj(s[k]·g[k]) without materializing it: the bin-wise product and
// conjugation (the correction-spectrum stitch in internal/streamblock) run
// inside the kernel's pair-rotation first pass. The operation sequence per
// bin matches a separate multiply-conjugate pass exactly, so the output is
// bit-identical to computing the product spectrum first. len(g) must be at
// least len(s); s and g are left unmodified.
func HermitianRealConjProduct(out []float64, s, g, z []complex128) error {
	h := len(s) - 1
	if !IsPowerOfTwo(h) {
		return ErrNotPowerOfTwo
	}
	if len(z) < h || len(out) > 2*h || len(g) < h+1 {
		return ErrBadLength
	}
	t := tablesFor(h)
	hermitianScatterConjProduct(z[:h], s, g, t, scatterSpan(h))
	hermitianKernel(out, z[:h], t)
	return nil
}

// HermitianStages runs HermitianReal's butterfly stages alone: the
// unnormalized half-length inverse kernel over z in place, then the unpack
// of its interleaved result into out. HermitianReal and its variants run it
// after their pair-rotation scatter; it is exported so the block engine's
// refill ledger can time the stages apart from the scatter. len(z) must be
// a power of two and len(out) at most 2·len(z).
func HermitianStages(out []float64, z []complex128) error {
	h := len(z)
	if !IsPowerOfTwo(h) {
		return ErrNotPowerOfTwo
	}
	if len(out) > 2*h {
		return ErrBadLength
	}
	hermitianKernel(out, z, tablesFor(h))
	return nil
}

// The three scatters compute pair k, for k = 1..h/2−1, independently of
// every other pair, and write it to z[rev[k]] and z[rev[h−k]]. Walked in
// natural order, consecutive pairs land h/4 elements apart: past L1 size
// every store touches a new cache line. They walk k = l + i·span instead,
// l outer and i inner, with span = h/(2·scatterGroups): the i bits are the
// high bits of k, which bit reversal makes the low bits of rev[k] and
// rev[h−k], so one inner run stores to a few adjacent lines. Each z entry
// gets the same operands and operations in either order, so the walk
// cannot move a bit. span = 1 is the natural order, which h < 16 keeps.
// Each scatter takes its span as an argument, scatterSpan(h) in
// production, so TestScatterOrder can run the natural order as the oracle
// of the blocked one.
const scatterGroups = 8

// scatterSpan returns the outer stride of the scatter walk at half-length h.
func scatterSpan(h int) int { return max(h/(2*scatterGroups), 1) }

// scatterFirst returns the first k of outer step l: l itself, except that
// pair 0 (the DC/Nyquist bins) is written apart, so step 0 starts at span.
func scatterFirst(l, span int) int {
	if l == 0 {
		return span
	}
	return l
}

// hermitianScatter performs the pair-rotation pass over the half-spectrum a
// as-is, scattering Z to bit-reversed positions for hermitianKernel. Reading
// the conjugated doubled spectrum W[k] = 2·conj(A[k]) on the fly, the packed
// half-length input is
//
//	Z[k]   = (W[k]+conj(W[h-k]))/2 + rot[k]·(W[k]-conj(W[h-k]))
//	Z[h-k] = (W[h-k]+conj(W[k]))/2 + conj(rot[k])·(W[h-k]-conj(W[k]))
//
// With A[k] = (p,q), A[h-k] = (s,u), rot[k] = (rr,ri), and the shared terms
// A = rr·(p-s), B = ri·(q+u), C = ri·(p-s), D = rr·(q+u), expanding the
// complex algebra gives
//
//	Z[k]   = (p+s + 2(A+B),  (u-q) + 2(C-D))
//	Z[h-k] = (p+s - 2(A+B),  (q-u) + 2(C-D))
//
// — four real multiplies per pair instead of four complex products. The
// scaled and conj-product variants repeat this body verbatim (it exceeds the
// inliner's budget as a helper, and the scatter runs once per synthesized
// block); only the spectrum reads feeding (p,q,s,u) differ.
func hermitianScatter(z, a []complex128, t *tables, span int) {
	h := t.n
	rot := t.rotation()
	rev := t.rev
	a0, ah := real(a[0]), real(a[h])
	z[0] = complex(a0+ah, a0-ah)
	half := h / 2
	for l := range span {
		for k := scatterFirst(l, span); k < half; k += span {
			p, q := real(a[k]), imag(a[k])
			s, u := real(a[h-k]), imag(a[h-k])
			rr, ri := real(rot[k]), imag(rot[k])
			dp := p - s // Re difference
			sq := q + u // Im sum
			A := float64(rr * dp)
			B := float64(ri * sq)
			C := float64(ri * dp)
			D := float64(rr * sq)
			ps := p + s
			ab, cd := float64(2*(A+B)), float64(2*(C-D))
			z[rev[k]] = complex(ps+ab, (u-q)+cd)
			z[rev[h-k]] = complex(ps-ab, (q-u)+cd)
		}
	}
	if h >= 2 {
		// Self-paired midpoint: rot[h/2] is exactly -1/2, which reduces the
		// rotation to Z[h/2] = 2·a[h/2].
		z[rev[h/2]] = complex(2*real(a[h/2]), 2*imag(a[h/2]))
	}
}

// hermitianScatterScaled is hermitianScatter over the spectrum w[k]·a[k],
// computing each scaled component inline. A pre-scaling pass would perform
// the identical multiplies, so the Z values are bit-equal.
func hermitianScatterScaled(z, a []complex128, w []float64, t *tables, span int) {
	h := t.n
	rot := t.rotation()
	rev := t.rev
	a0, ah := float64(w[0]*real(a[0])), float64(w[h]*real(a[h]))
	z[0] = complex(a0+ah, a0-ah)
	half := h / 2
	for l := range span {
		for k := scatterFirst(l, span); k < half; k += span {
			wk, wm := w[k], w[h-k]
			p, q := float64(wk*real(a[k])), float64(wk*imag(a[k]))
			s, u := float64(wm*real(a[h-k])), float64(wm*imag(a[h-k]))
			rr, ri := real(rot[k]), imag(rot[k])
			dp := p - s
			sq := q + u
			A := float64(rr * dp)
			B := float64(ri * sq)
			C := float64(ri * dp)
			D := float64(rr * sq)
			ps := p + s
			ab, cd := float64(2*(A+B)), float64(2*(C-D))
			z[rev[k]] = complex(ps+ab, (u-q)+cd)
			z[rev[h-k]] = complex(ps-ab, (q-u)+cd)
		}
	}
	if h >= 2 {
		wm := w[h/2]
		z[rev[h/2]] = complex(2*float64(wm*real(a[h/2])), 2*float64(wm*imag(a[h/2])))
	}
}

// hermitianScatterConjProduct is hermitianScatter over the spectrum
// conj(s[k]·g[k]), computing each product bin inline. The per-bin sequence —
// complex product, then negated imaginary part — matches a separate
// multiply-conjugate pass, so the Z values are bit-equal.
func hermitianScatterConjProduct(z, spec, g []complex128, t *tables, span int) {
	h := t.n
	rot := t.rotation()
	rev := t.rev
	a0, ah := real(cmul(spec[0], g[0])), real(cmul(spec[h], g[h]))
	z[0] = complex(a0+ah, a0-ah)
	half := h / 2
	for l := range span {
		for k := scatterFirst(l, span); k < half; k += span {
			vk := cmul(spec[k], g[k])
			vm := cmul(spec[h-k], g[h-k])
			p, q := real(vk), -imag(vk)
			s, u := real(vm), -imag(vm)
			rr, ri := real(rot[k]), imag(rot[k])
			dp := p - s
			sq := q + u
			A := float64(rr * dp)
			B := float64(ri * sq)
			C := float64(ri * dp)
			D := float64(rr * sq)
			ps := p + s
			ab, cd := float64(2*(A+B)), float64(2*(C-D))
			z[rev[k]] = complex(ps+ab, (u-q)+cd)
			z[rev[h-k]] = complex(ps-ab, (q-u)+cd)
		}
	}
	if h >= 2 {
		vm := cmul(spec[h/2], g[h/2])
		z[rev[h/2]] = complex(2*real(vm), 2*(-imag(vm)))
	}
}

// hermitianKernel runs the unnormalized half-length inverse-kernel FFT over
// the pre-scattered z and unpacks the interleaved result into out
// (out[2j] = Re z[j], out[2j+1] = Im z[j]). This path is not bit-pinned to
// the complex transform, so it takes the liberties the golden-traced path
// cannot: the length-2 and length-4 stages fuse into one pass with exact
// ±i twiddles, and later stages run as fused radix-2² double stages that
// touch each element once per two stages. Stages whose blocks fit in a cache
// tile run tile by tile (one memory pass for all of them); the remaining
// large stages continue the same radix-2² progression globally — a pure
// reordering of independent butterflies, so tiling never changes bits.
func hermitianKernel(out []float64, z []complex128, t *tables) {
	h := t.n
	if h >= 4 {
		tile := h
		if tile > stageTile {
			tile = stageTile
		}
		odd := (log2(h)-2)%2 == 1
		q := 0
		for lo := 0; lo < h; lo += tile {
			q = hermitianTileStages(z[lo:lo+tile], t, odd)
		}
		hermitianDoubleStages(z[:h], t, q, h)
	} else if h >= 2 {
		for s := 0; s < h; s += 2 {
			u, v := z[s], z[s+1]
			z[s], z[s+1] = u+v, u-v
		}
	}
	copy(out, interleaved(z))
}

// interleaved views z as the float64 sequence Re z[0], Im z[0], Re z[1],
// …: a complex128 is its real part followed by its imaginary part in
// memory, so hermitianKernel's unpack is one copy of the same values.
func interleaved(z []complex128) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(z))), 2*len(z))
}

// hermitianTileStages runs every inverse-kernel stage whose butterfly blocks
// fit within one tile z (len(z) >= 4, a power of two): the fused length-2 +
// length-4 first pass, the parity stage when the total stage count of the
// full transform is odd, then radix-2² double stages up to the tile size. It
// returns the half-length the radix-2² progression reached, for
// hermitianDoubleStages to continue globally.
func hermitianTileStages(z []complex128, t *tables, odd bool) int {
	tile := len(z)
	for s := 0; s < tile; s += 4 {
		b0, b1, b2, b3 := z[s], z[s+1], z[s+2], z[s+3]
		t0, t1 := b0+b1, b0-b1
		t2, t3 := b2+b3, b2-b3
		it3 := complex(-imag(t3), real(t3)) // t3 *= +i (inverse kernel)
		z[s], z[s+2] = t0+t2, t0-t2
		z[s+1], z[s+3] = t1+it3, t1-it3
	}
	q := 4
	if odd && q < tile {
		// One plain radix-2 stage restores parity for the double stages.
		if !radix2Vec(z, t.invStages[2]) {
			radix2(z, t.invStages[2])
		}
		q <<= 1
	}
	return hermitianDoubleStages(z, t, q, tile)
}

// hermitianDoubleStages runs fused radix-2² double stages over z, starting
// at half-length q and stopping once a double stage would span more than
// limit elements. Stage q and stage 2q combine using w_{4q}^{q+k} = i·w_{4q}^k,
// so each element is loaded and stored once per two stages. It returns the
// half-length reached. On amd64 with AVX2 the stages run in radix22AVX2,
// bit for bit; radix22 runs them elsewhere.
func hermitianDoubleStages(z []complex128, t *tables, q, limit int) int {
	tw := t.inv
	for ; 4*q <= limit; q <<= 2 {
		u := tw[q-1 : 2*q-1]   // stage q twiddles (length-2q kernel)
		w := tw[2*q-1 : 3*q-1] // stage 2q twiddles, first q entries
		if !radix22Vec(z, u, w) {
			radix22(z, u, w)
		}
	}
	return q
}

// radix22 runs one radix-2² double stage at half-length q = len(u) over
// every block of 4q elements of z, with stage-q twiddles u and the first q
// stage-2q twiddles w. It is the only implementation off amd64 and without
// AVX2, and the oracle the vector kernel is tested against.
func radix22(z, u, w []complex128) {
	q := len(u)
	w = w[:q]
	for start := 0; start < len(z); start += 4 * q {
		x0 := z[start : start+q : start+q]
		x1 := z[start+q : start+2*q : start+2*q]
		x2 := z[start+2*q : start+3*q : start+3*q]
		x3 := z[start+3*q : start+4*q : start+4*q]
		for k := 0; k < q; k++ {
			uk := u[k]
			b1 := cmul(x1[k], uk)
			b3 := cmul(x3[k], uk)
			t0, t1 := x0[k]+b1, x0[k]-b1
			t2, t3 := x2[k]+b3, x2[k]-b3
			wk := w[k]
			v2 := cmul(t2, wk)
			v3 := cmul(t3, wk)
			iv3 := complex(-imag(v3), real(v3)) // w^{q+k} = i·w^k
			x0[k] = t0 + v2
			x2[k] = t0 - v2
			x1[k] = t1 + iv3
			x3[k] = t1 - iv3
		}
	}
}

// log2 returns floor(log2(n)) for n >= 1.
func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// AutocovarianceKnownMeanInto is the zero-allocation counterpart of
// AutocovarianceKnownMean: it computes the biased autocovariance of x at lags
// 0..len(dst)-1 (clamped to len(x)-1) into dst, using the fused packed
// real-input FFT pipeline (two half-length transforms instead of two full
// complex ones) and the scratch buffers in s. It returns the filled prefix of
// dst. Results agree with AutocovarianceKnownMean to floating-point rounding,
// not bit-exactly — callers that pin bits must keep using the complex path.
func AutocovarianceKnownMeanInto(dst []float64, x []float64, mean float64, s *Scratch) []float64 {
	n := len(x)
	if n == 0 || len(dst) == 0 {
		return nil
	}
	maxLag := len(dst) - 1
	if maxLag >= n {
		maxLag = n - 1
	}
	m := NextPowerOfTwo(2 * n)
	h := m / 2
	a, z := s.buffers(h)
	t := tablesFor(h)
	realForwardPadded(a, x, mean, t)
	for k := 0; k <= h; k++ {
		re, im := real(a[k]), imag(a[k])
		a[k] = complex(re*re+im*im, 0)
	}
	out := dst[:maxLag+1]
	hermitianScatter(z, a, t, scatterSpan(h))
	hermitianKernel(out, z, t)
	// hermitianKernel is unnormalized (a factor of m versus the inverse DFT);
	// fold that and the biased-estimator 1/n into one scale.
	inv := 1 / (float64(m) * float64(n))
	for k := range out {
		out[k] *= inv
	}
	return out
}
