// Package streamblock is the exact streaming synthesis engine: an
// overlapped-block Davies-Harte generator that produces unbounded Gaussian
// background streams by generating fixed-size circulant blocks ahead of the
// read cursor and stitching consecutive blocks with an AR(p)-conditional
// correction. Live sessions get exact-FFT statistical quality inside every
// block at an amortized per-frame cost near Plan.PathRealInto, instead of
// the truncated-AR(p) recursion's O(p) per frame.
//
// # Algorithm
//
// Each block b draws a fresh Davies-Harte path of length p+B from a
// per-block seed (p = the AR truncation order, B = the emitted block size):
// the first p samples are a synthetic "fake past", the remaining B are the
// emission candidates. For b > 0 the fake past disagrees with the last p
// frames actually emitted by block b-1 (the history), so the emission is
// corrected by transplanting the conditional mean: with diff = history -
// fakePast, the correction d is the homogeneous AR(p) extension of diff —
// the exact difference E[future | history] - E[future | fakePast] under the
// frozen AR(p) law — added to the first C emitted samples. For a true AR(p)
// process this stitch is exact (the fluctuation around the conditional mean
// is independent of the past); for the long-memory targets here its error is
// the same AR-truncation error class the hosking fast path already carries,
// but diluted by the boundary-crossing fraction k/B per lag.
//
// The extension is computed in O((p+C) log(p+C)) per refill, not O(p·C): the
// residual r = diff - phi*diff (support p) is convolved with the precomputed
// AR impulse response psi (1/(1-Phi(x)), truncated to p+C) through the
// packed real FFT at size F = nextpow2(2p+C), so the whole stitch amortizes
// to a few ns per emitted frame.
//
// # Seek in O(1)
//
// The correction horizon is capped at C <= B-p, so the last p emitted frames
// of every block are untouched raw samples. The history entering block b is
// therefore a pure function of raw block b-1, which depends only on
// blockSeed(seed, b-1): any position can be reached by regenerating at most
// two blocks (the predecessor for its tail, then the target block), bit-
// identically to sequential playback — backward seek costs the same two
// refills as forward seek.
//
// A Stream owns a per-session arena (raw block, history, FFT pads, spectrum
// scratch, RNG) allocated once at NewStream; steady-state refills perform no
// allocations.
package streamblock

import (
	"fmt"
	"time"

	"vbrsim/internal/acf"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/fft"
	"vbrsim/internal/hosking"
	"vbrsim/internal/rng"
)

// Config sizes an engine. The zero value selects the serving defaults.
type Config struct {
	// Total is the Davies-Harte path length per refill (fake past + emitted
	// block), rounded up to a power of two so the circulant is exactly
	// 2*Total. Default 8192. Must leave room for Total - order > order.
	Total int
	// Horizon overrides the correction horizon C (frames of each block that
	// receive the stitch correction); 0 selects min(B-p, nextpow2(4p)).
	// It is always clamped to B-p to preserve the O(1) seek invariant.
	Horizon int
}

// DefaultTotal is the serving block total: with the paper model's order
// p=361 it gives B=7831 emitted frames per 16384-point circulant, large
// enough to amortize the refill FFTs below the per-frame cost of the
// truncated recursion and small enough that a refill stays ~1ms.
const DefaultTotal = 8192

// Engine holds the immutable precomputed state shared by every stream of
// one (model, truncation, config): the Davies-Harte plan, the AR row, and
// the spectrum of the stitch kernel. Safe for concurrent use.
type Engine struct {
	plan  *daviesharte.Plan
	trunc *hosking.Truncated

	order   int // p: AR truncation order = overlap length
	block   int // B: emitted frames per refill
	horizon int // C: corrected frames per block, <= B - p
	conv    int // F: FFT size of the stitch convolution, >= 2p+C-1

	phi     []float64    // phi[k] for k = 1..p (phi[0] unused)
	psiSpec []complex128 // half-spectrum of psi (AR impulse response, length p+C) at size F
	invConv float64      // 1/F: normalization of the unscaled Hermitian synthesis
}

// NewEngine builds the engine for the model's frozen AR(p) view. The model
// must be the same ACF the truncation was derived from.
func NewEngine(model acf.Model, trunc *hosking.Truncated, cfg Config) (*Engine, error) {
	p := trunc.Order()
	total := cfg.Total
	if total == 0 {
		total = DefaultTotal
	}
	total = fft.NextPowerOfTwo(total)
	if total < 2*p+2 {
		return nil, fmt.Errorf("streamblock: total %d leaves no room past order %d (need > 2p)", total, p)
	}
	b := total - p
	c := cfg.Horizon
	if c <= 0 {
		c = fft.NextPowerOfTwo(4 * p)
	}
	if c > b-p {
		c = b - p
	}
	conv := fft.NextPowerOfTwo(2*p + c)

	plan, err := daviesharte.NewPlan(model, total, daviesharte.Options{AllowApprox: true})
	if err != nil {
		return nil, err
	}

	// AR coefficients from the reversed row: row[i] = phi_{p,p-i}.
	row := trunc.Row()
	phi := make([]float64, p+1)
	for k := 1; k <= p; k++ {
		phi[k] = row[p-k]
	}

	// psi = 1/(1-Phi(x)) truncated to p+C terms: psi[0]=1,
	// psi[t] = sum_{k=1..min(t,p)} phi[k]*psi[t-k].
	psi := make([]float64, conv)
	psi[0] = 1
	for t := 1; t < p+c; t++ {
		kmax := t
		if kmax > p {
			kmax = p
		}
		var s float64
		for k := 1; k <= kmax; k++ {
			s += phi[k] * psi[t-k]
		}
		psi[t] = s
	}
	psiSpec := make([]complex128, conv/2+1)
	if err := fft.RealForward(psiSpec, psi); err != nil {
		return nil, err
	}

	return &Engine{
		plan:    plan,
		trunc:   trunc,
		order:   p,
		block:   b,
		horizon: c,
		conv:    conv,
		phi:     phi,
		psiSpec: psiSpec,
		invConv: 1 / float64(conv),
	}, nil
}

// Order returns the AR overlap length p.
func (e *Engine) Order() int { return e.order }

// Block returns the emitted frames per refill B.
func (e *Engine) Block() int { return e.block }

// blockSeed derives the RNG seed of one block: a SplitMix64 mix of the
// stream seed and the block index, so block k is a pure function of
// (seed, k) — the property O(1) seek rests on.
func blockSeed(seed uint64, block int) uint64 {
	z := seed + (uint64(block)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is one unbounded background stream: the per-session arena plus the
// read cursor. It is bound to a single goroutine.
type Stream struct {
	e    *Engine
	seed uint64

	src rng.Source
	dh  daviesharte.Scratch

	raw  []float64    // p+B: current block's DH path; raw[p:] is the emitted view
	hist []float64    // p: raw tail of the previous block
	pad  []float64    // F: zero-padded stitch residual
	spec []complex128 // F/2+1: residual spectrum
	zs   []complex128 // F/2: Hermitian synthesis scratch
	d    []float64    // p+C: convolution output (correction lives in d[p:])

	block int // index of the materialized block; -1 before the first refill
	off   int // next emit offset within raw[p:], 0..B
}

// NewStream allocates a stream arena for the engine. The first refill is
// lazy, so opening a stream that is immediately seeked pays for exactly two
// block generations, not three.
func (e *Engine) NewStream(seed uint64) *Stream {
	s := &Stream{
		e:    e,
		raw:  make([]float64, e.order+e.block),
		hist: make([]float64, e.order),
		pad:  make([]float64, e.conv),
		spec: make([]complex128, e.conv/2+1),
		zs:   make([]complex128, e.conv/2),
		d:    make([]float64, e.order+e.horizon),
	}
	s.Reseed(seed)
	observeArena(s.arenaBytes())
	return s
}

// arenaBytes is the arena footprint this stream contributes to the gauge.
func (s *Stream) arenaBytes() int64 {
	return int64(8*(len(s.raw)+len(s.hist)+len(s.pad)+len(s.d)) +
		16*(len(s.spec)+len(s.zs)))
}

// Close releases the stream's contribution to the arena-bytes gauge. The
// buffers themselves are garbage-collected; Close only keeps the gauge
// honest and is safe to skip for short-lived streams in tests.
func (s *Stream) Close() { observeArena(-s.arenaBytes()) }

// Engine returns the engine the stream draws from.
func (s *Stream) Engine() *Engine { return s.e }

// Pos returns the index of the next frame the stream will produce.
func (s *Stream) Pos() int {
	if s.block < 0 {
		return 0
	}
	return s.block*s.e.block + s.off
}

// Reseed resets the stream to position 0 under a new seed, reusing the
// arena. A stream reseeded with its own seed replays bit-identically.
func (s *Stream) Reseed(seed uint64) {
	s.seed = seed
	s.block = -1
	s.off = s.e.block
}

// refillRaw regenerates block b's raw Davies-Harte path into the arena
// without stitching (the form seek needs for the predecessor block).
func (s *Stream) refillRaw(b int) {
	s.src.Reseed(blockSeed(s.seed, b))
	s.e.plan.PathRealInto(s.raw, &s.dh, &s.src)
}

// refill materializes block b: raw path, stitch correction against the
// current history (skipped for block 0), and the history handoff for the
// next block. It assumes hist holds block b-1's raw tail when b > 0.
func (s *Stream) refill(b int) {
	start := time.Now()
	e := s.e
	s.refillRaw(b)
	if b > 0 {
		s.stitch()
	}
	// The raw tail is outside the corrected span (C <= B-p), so the handoff
	// is identical whether it is read before or after the stitch — and a
	// seek that regenerates only the raw predecessor gets the same bytes.
	copy(s.hist, s.raw[e.block:])
	s.block = b
	s.off = 0
	observeRefill(time.Since(start).Nanoseconds())
}

// stitch adds the AR(p)-conditional correction to raw[p:p+C]: the
// homogeneous AR extension of diff = hist - fakePast, computed as
// psi * (diff - phi*diff) through the packed real FFT.
func (s *Stream) stitch() {
	e := s.e
	p := e.order
	// Residual r[t] = diff[t] - sum_{k=1..t} phi[k]*diff[t-k], t < p, into
	// the zero-padded conv buffer. diff itself is formed on the fly; the
	// triangular phi pass is O(p^2/2), a few ns per emitted frame amortized.
	pad := s.pad
	for t := 0; t < p; t++ {
		pad[t] = s.hist[t] - s.raw[t]
	}
	arResidual(pad[:p], e.phi)
	for t := p; t < e.conv; t++ {
		pad[t] = 0
	}
	if err := fft.RealForward(s.spec, pad); err != nil {
		panic("streamblock: internal FFT error: " + err.Error())
	}
	// HermitianReal computes the FORWARD transform of the Hermitian
	// extension; on the conjugated product conj(spec·psiSpec) that equals F
	// times the inverse DFT of the product — i.e. the circular convolution
	// r*psi, unnormalized. (For the real-even autocovariance spectrum forward
	// and inverse coincide, which is why that caller skips the conj.) The
	// product and conjugation run fused inside the synthesis kernel's first
	// pass, bit-identical to materializing the conjugated product spectrum.
	// Only the prefix p+C is unpacked; the correction is d[p..p+C).
	if err := fft.HermitianRealConjProduct(s.d, s.spec, e.psiSpec, s.zs); err != nil {
		panic("streamblock: internal FFT error: " + err.Error())
	}
	out := s.raw[p : p+e.horizon]
	corr := s.d[p:]
	for j := range out {
		out[j] += corr[j] * e.invConv
	}
}

// arResidual turns diff into the AR residual in place:
//
//	diff[t] -= sum_{k=1..t} phi[k]*diff[t-k]   for t = len(diff)-1 down to 1,
//
// every sum reading the entry values (rows run downward, so the rows a sum
// reads are still unmodified). It computes four rows per pass over phi, with
// one accumulator per row summed in ascending k, so each row's result is
// bit-identical to the row-at-a-time loop; the four rows share each phi load
// and a sliding window of diff, and their independent sums overlap.
func arResidual(diff, phi []float64) {
	t := len(diff) - 1
	for ; t >= 4; t -= 4 {
		// Rows t, t-1, t-2, t-3. Jointly over k = 1..t-3, row t-j adds
		// phi[k]*diff[t-j-k]; x0..x3 hold diff[t-k] .. diff[t-k-3].
		var a0, a1, a2, a3 float64
		x0, x1, x2 := diff[t-1], diff[t-2], diff[t-3]
		ph := phi[1 : t-2]
		for k, c := range ph {
			x3 := diff[t-4-k]
			a0 += c * x0
			a1 += c * x1
			a2 += c * x2
			a3 += c * x3
			x0, x1, x2 = x1, x2, x3
		}
		// The remaining k of the upper three rows, still in ascending order.
		a0 += phi[t-2] * diff[2]
		a0 += phi[t-1] * diff[1]
		a0 += phi[t] * diff[0]
		a1 += phi[t-2] * diff[1]
		a1 += phi[t-1] * diff[0]
		a2 += phi[t-2] * diff[0]
		diff[t] -= a0
		diff[t-1] -= a1
		diff[t-2] -= a2
		diff[t-3] -= a3
	}
	for ; t >= 1; t-- {
		var acc float64
		for k := 1; k <= t; k++ {
			acc += phi[k] * diff[t-k]
		}
		diff[t] -= acc
	}
}

// advance materializes the next block in sequence.
func (s *Stream) advance() {
	s.refill(s.block + 1)
}

// Fill produces len(out) consecutive background samples. Steady-state calls
// perform no allocations.
func (s *Stream) Fill(out []float64) {
	for len(out) > 0 {
		if s.off == s.e.block {
			s.advance()
		}
		n := copy(out, s.raw[s.e.order+s.off:])
		s.off += n
		out = out[n:]
	}
}

// Seek positions the stream so the next sample is sample pos, in O(1):
// at most two block refills regardless of distance or direction, one when
// pos lies in the next block, bit-identical to sequential playback
// reaching the same position.
func (s *Stream) Seek(pos int) {
	if pos < 0 {
		pos = 0
	}
	e := s.e
	b, off := pos/e.block, pos%e.block
	if b == s.block {
		s.off = off
		return
	}
	// Seeking into the next block finds its history in place: hist already
	// holds the current block's raw tail, as sequential playback would.
	if b > 0 && b != s.block+1 {
		// History = raw tail of the predecessor; its stitch correction never
		// reaches the tail, so the raw path alone reproduces it.
		s.refillRaw(b - 1)
		copy(s.hist, s.raw[e.block:])
	}
	s.refill(b)
	s.off = off
}
