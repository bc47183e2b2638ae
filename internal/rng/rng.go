// Package rng provides a deterministic, splittable pseudo-random number
// generator together with the non-uniform variate samplers used throughout
// the library.
//
// The generator is xoshiro256++ seeded through SplitMix64. It is implemented
// from scratch (rather than wrapping math/rand) so that synthetic traces are
// bit-reproducible across Go releases, and so that independent streams can be
// derived deterministically for parallel replications via Split.
//
// The batched normal draw (NormPairs) transforms its accepted polar pairs
// with an AVX2 kernel, four at a time, on amd64 processors that have AVX2,
// and with a Go loop everywhere else. The kernel performs each lane's IEEE
// operations in the Go loop's order, with no fused multiply-add, so both
// paths give the same bits: a trace is the same on every machine.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256++ pseudo-random number generator.
// The zero value is not usable; construct one with New.
type Source struct {
	s [4]uint64

	// spare holds the second variate produced by the polar normal method.
	spare    float64
	hasSpare bool
}

// New returns a Source seeded from the given seed. Any seed, including zero,
// yields a well-mixed internal state.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm, src.s[i] = splitMix64(sm)
	}
	return &src
}

// Reseed resets the receiver in place to the exact state New(seed) would
// produce, discarding any cached normal spare. It lets batch loops reuse one
// Source per worker across replications without a per-replication allocation:
// r.Reseed(s) followed by any draw sequence yields bit-identical values to
// New(s) followed by the same sequence.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	r.spare, r.hasSpare = 0, false
}

// splitMix64 advances a SplitMix64 state and returns the new state and output.
func splitMix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split returns a new Source whose stream is deterministically derived from,
// and statistically independent of, the receiver's continuing stream. It is
// the supported way to give each parallel replication its own generator.
func (r *Source) Split() *Source {
	// Derive the child state through SplitMix64 so that child streams do not
	// share the parent's linear-engine orbit.
	var child Source
	sm := r.Uint64()
	for i := range child.s {
		sm, child.s[i] = splitMix64(sm)
	}
	return &child
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform float64 in the open interval (0, 1),
// suitable for feeding quantile functions that diverge at 0 or 1.
func (r *Source) OpenFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, a * b
}

// Norm returns a standard normal variate using the polar (Marsaglia) method.
func (r *Source) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare, r.hasSpare = v*f, true
		return u * f
	}
}

// normBatch is how many polar pairs NormPairs stages per pass: three
// float64 arrays of this length (6 KiB) live on the caller's stack, so the
// batched draw needs no per-Source or per-call buffer.
const normBatch = 256

// acceptBound is the unsigned bound on bits(s)-1 that holds exactly when
// 0 < s < 1 for a non-negative, non-NaN s: bits(s) = 0 wraps to the top of
// the range, and every s >= 1 has bits(s) >= bits(1).
const acceptBound = 0x3FF0000000000000 - 1

// NormPairs fills dst with standard normals, dst[k] = complex(Norm(),
// Norm()) in order: the values, the consumption of the stream and the spare
// left behind are exactly those of 2·len(dst) successive Norm calls. It is
// faster than that loop because it works in batches of polar pairs. Phase 1
// keeps the xoshiro state in locals, forms (u, v, s) for each candidate and
// compacts the accepted triples without a branch on the rejection test.
// Phase 2 then transforms the batch in independent iterations, so the
// divides, math.Log and math.Sqrt of different pairs overlap in the
// pipeline; with no spare pending (every Davies-Harte refill) that is
// PolarTransform, four lanes per instruction where AVX2 is present. The
// transform is Norm's own expression, so every value is bit-identical to
// it on every architecture.
func (r *Source) NormPairs(dst []complex128) {
	if len(dst) == 0 {
		return
	}
	// With a pending spare the flat sequence is shifted by one: dst[0]
	// opens with the spare, each later real part is the previous pair's v·f,
	// and the last pair's v·f is left as the new spare. Either way the fill
	// takes exactly len(dst) polar pairs.
	carry, shifted := r.spare, r.hasSpare
	var us, vs, ss [normBatch]float64
	for len(dst) > 0 {
		want := len(dst)
		if want > normBatch {
			want = normBatch
		}
		s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
		for got := 0; got < want; {
			// Two xoshiro256++ steps, inlined: u first, then v, as Norm
			// draws them.
			x := rotl(s0+s3, 23) + s0
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			y := rotl(s0+s3, 23) + s0
			t = s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			// x>>11 < 2^53 converts exactly through int64, which is one
			// instruction where the unsigned conversion is several.
			u := 2*(float64(int64(x>>11))/(1<<53)) - 1
			v := 2*(float64(int64(y>>11))/(1<<53)) - 1
			s := u*u + v*v
			// got < normBatch, so the mask only drops the bounds check.
			i := got & (normBatch - 1)
			us[i], vs[i], ss[i] = u, v, s
			_, accept := bits.Sub64(math.Float64bits(s)-1, acceptBound, 0)
			got += int(accept)
		}
		r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3

		out := dst[:want]
		u, v, s := us[:want], vs[:want], ss[:want]
		if shifted {
			for k := range out {
				f := math.Sqrt(-2 * math.Log(s[k]) / s[k])
				out[k] = complex(carry, u[k]*f)
				carry = v[k] * f
			}
		} else {
			PolarTransform(out, u, v, s)
			// Norm leaves the consumed spare's value behind too.
			carry = imag(out[want-1])
		}
		dst = dst[want:]
	}
	r.spare, r.hasSpare = carry, shifted
}

// PolarTransform is Norm's polar transform over accepted candidates
// (0 < s[k] < 1, s[k] = u[k]²+v[k]²): out[k] = complex(u[k]·f, v[k]·f) with
// f = √(−2·log(s[k])/s[k]), bit-identical to Norm. It is NormPairs' second
// phase, exported so the block engine's refill ledger can time it apart
// from the draws. On amd64 with AVX2 a vector kernel transforms four pairs
// at a time; polar does the rest, and everything elsewhere.
func PolarTransform(out []complex128, u, v, s []float64) {
	n := polarVec(out, u, v, s)
	polar(out[n:], u[n:], v[n:], s[n:])
}

// polar is Norm's polar transform over accepted candidates:
// out[k] = complex(u[k]·f, v[k]·f) with f = √(−2·log(s[k])/s[k]). It is the
// whole transform off amd64 and without AVX2, the tail polarVec leaves, and
// the oracle the vector kernel is tested against.
func polar(out []complex128, u, v, s []float64) {
	for k := range out {
		f := math.Sqrt(-2 * math.Log(s[k]) / s[k])
		out[k] = complex(u[k]*f, v[k]*f)
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(r.OpenFloat64()) / rate
}

// Pareto returns a Pareto variate with shape alpha and minimum xm:
// P(X > x) = (xm/x)^alpha for x >= xm.
func (r *Source) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		panic("rng: Pareto with non-positive parameter")
	}
	return xm / math.Pow(r.OpenFloat64(), 1/alpha)
}

// Gamma returns a gamma variate with the given shape and scale
// (mean shape*scale), using Marsaglia–Tsang for shape >= 1 and the
// boosting transform for shape < 1.
func (r *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: if G ~ Gamma(shape+1), then G*U^(1/shape) ~ Gamma(shape).
		g := r.Gamma(shape+1, scale)
		return g * math.Pow(r.OpenFloat64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.OpenFloat64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Lognormal returns exp(N(mu, sigma^2)).
func (r *Source) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// Poisson returns a Poisson variate with the given mean, using Knuth's
// product method for small means and a normal approximation with continuity
// correction for large ones.
func (r *Source) Poisson(mean float64) int {
	if mean < 0 {
		panic("rng: Poisson with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := math.Floor(mean + math.Sqrt(mean)*r.Norm() + 0.5)
	if v < 0 {
		return 0
	}
	return int(v)
}
