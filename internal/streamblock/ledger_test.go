package streamblock

import (
	"context"
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
//   - transform-ns: the polar transform of those pairs (rng.PolarTransform);
//   - scatter-ns: the √(λ_k)-scaled pair-rotation scatter
//     (fft.HermitianRealScaled less stages-ns);
//   - stages-ns: the Hermitian butterfly stages and unpack
//     (fft.HermitianStages);
//   - stitch-ns: the AR(p)-conditional stitch;
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

	var draws, transform, synth, stages, stitch, refill time.Duration
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
		s.refill(3, sc)
		lap(&refill, t)
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
	b.ReportMetric(per(draws-transform), "draws-ns")
	b.ReportMetric(per(transform), "transform-ns")
	b.ReportMetric(per(synth-stages), "scatter-ns")
	b.ReportMetric(per(stages), "stages-ns")
	b.ReportMetric(per(stitch), "stitch-ns")
	b.ReportMetric(per(refill), "refill-ns")
}
