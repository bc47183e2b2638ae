package streamblock

import (
	"context"
	"math/bits"
	"testing"
	"time"

	"vbrsim/internal/core"
	"vbrsim/internal/fft"
	"vbrsim/internal/rng"
)

// BenchmarkRefillLedger splits one stitched refill of the serving engine
// (the paper model's truncation, p = 361, at DefaultTotal: a 16384-point
// circulant synthesized from h = 8192 half-spectrum bins) into its phases,
// each run on the production code and reported in ns per refill:
//
//   - draws-ns: xoshiro draws and the polar accept/reject behind the h−1
//     normal pairs (rng.NormPairs less transform-ns);
//   - chain-ns: the bare xoshiro256++ steps behind those draws, two per
//     candidate pair NormPairs tried, with no conversion and no compaction:
//     the floor a draws kernel works against;
//   - transform-ns: the polar transform of those pairs (rng.PolarTransform);
//   - scatter-ns: the √(λ_k)-scaled pair-rotation scatter
//     (fft.HermitianRealScaled less stages-ns);
//   - stages-ns: the Hermitian butterfly stages and unpack
//     (fft.HermitianStages);
//   - stitch-ns: the AR(p)-conditional stitch, and apart its phases:
//     residual-ns (diff, the AR residual and the zero padding), forward-ns
//     (fft.RealForward at F) and product-ns (fft.HermitianRealConjProduct);
//   - refill-ns: one whole stitched refill, for the phases' sum to be read
//     against.
//
// A seek to a random position costs two refills, one of them unstitched.
//
//	go test ./internal/streamblock -run '^$' -bench RefillLedger -benchtime 200x
func BenchmarkRefillLedger(b *testing.B) {
	model := paperACF(b)
	trunc, err := core.TruncatedPlanForCtx(context.Background(), model, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(model, trunc, Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := DefaultTotal
	s := e.NewStream(1)
	defer s.Close()
	sc := e.borrow()
	defer e.giveBack(sc)
	s.Seek(3 * e.block) // a stitched block: hist holds block 2's tail

	src := rng.New(2)
	pairs := make([]complex128, h+1)
	us, vs, ss := make([]float64, h-1), make([]float64, h-1), make([]float64, h-1)
	for k := range ss {
		for {
			u, v := 2*src.Float64()-1, 2*src.Float64()-1
			if q := u*u + v*v; q > 0 && q < 1 {
				us[k], vs[k], ss[k] = u, v, q
				break
			}
		}
	}
	weights := make([]float64, h+1)
	for k := range weights {
		weights[k] = 1 + src.Float64()
	}
	z := make([]complex128, h)
	raw := make([]float64, e.order+e.block)

	p := e.order
	var draws, chain, transform, synth, stages, stitch, residual, forward, product, refill time.Duration
	var counter rng.Source
	lap := func(d *time.Duration, t0 time.Time) time.Time {
		t1 := time.Now()
		*d += t1.Sub(t0)
		return t1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := time.Now()
		src.Reseed(uint64(i))
		pairs[0] = complex(src.Norm(), 0)
		pairs[h] = complex(src.Norm(), 0)
		src.NormPairs(pairs[1:h])
		t = lap(&draws, t)
		n, state := candidates(&counter, uint64(i), h-1)
		t = time.Now()
		chainSink ^= xoshiroChain(state, 2*n)
		t = lap(&chain, t)
		rng.PolarTransform(pairs[1:h], us, vs, ss)
		t = lap(&transform, t)
		if err := fft.HermitianRealScaled(raw, pairs, weights, z); err != nil {
			b.Fatal(err)
		}
		t = lap(&synth, t)
		if err := fft.HermitianStages(raw, z); err != nil {
			b.Fatal(err)
		}
		t = lap(&stages, t)
		s.stitch(sc)
		t = lap(&stitch, t)
		for j := range p {
			sc.pad[j] = s.hist[j] - s.raw[j]
		}
		arResidual(sc.pad[:p], e.phi)
		clear(sc.pad[p:])
		t = lap(&residual, t)
		if err := fft.RealForward(sc.spec, sc.pad); err != nil {
			b.Fatal(err)
		}
		t = lap(&forward, t)
		if err := fft.HermitianRealConjProduct(sc.d, sc.spec, e.psiSpec, sc.zs); err != nil {
			b.Fatal(err)
		}
		t = lap(&product, t)
		s.refill(3, sc)
		lap(&refill, t)
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
	b.ReportMetric(per(draws-transform), "draws-ns")
	b.ReportMetric(per(chain), "chain-ns")
	b.ReportMetric(per(transform), "transform-ns")
	b.ReportMetric(per(synth-stages), "scatter-ns")
	b.ReportMetric(per(stages), "stages-ns")
	b.ReportMetric(per(stitch), "stitch-ns")
	b.ReportMetric(per(residual), "residual-ns")
	b.ReportMetric(per(forward), "forward-ns")
	b.ReportMetric(per(product), "product-ns")
	b.ReportMetric(per(refill), "refill-ns")
}

// chainSink keeps xoshiroChain's result live.
var chainSink uint64

// candidates replays the draws of one ledger refill on c (seed, then the
// two DC/Nyquist normals, then pairs accepted polar pairs) and returns how
// many candidate pairs the accept/reject tried, and c's state after them
// as a starting point for xoshiroChain.
func candidates(c *rng.Source, seed uint64, pairs int) (int, [4]uint64) {
	c.Reseed(seed)
	c.Norm()
	c.Norm()
	n := 0
	for got := 0; got < pairs; n++ {
		u, v := 2*c.Float64()-1, 2*c.Float64()-1
		if q := u*u + v*v; q > 0 && q < 1 {
			got++
		}
	}
	return n, [4]uint64{c.Uint64(), c.Uint64(), c.Uint64(), c.Uint64()}
}

// xoshiroChain runs steps bare xoshiro256++ steps from state and returns
// the XOR of their outputs.
func xoshiroChain(state [4]uint64, steps int) uint64 {
	s0, s1, s2, s3 := state[0], state[1], state[2], state[3]
	var acc uint64
	for range steps {
		acc ^= bits.RotateLeft64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	return acc
}
