package transform

import (
	"sync"
	"testing"

	"vbrsim/internal/dist"
	"vbrsim/internal/rng"
)

// The marginal-transform ablation: the exact CDF/quantile composition
// against the precomputed monotone interpolation table, on one
// 4096-frame background path.

const applyLen = 4096

var (
	lutOnce      sync.Once
	lutTransform T
	lutTable     *LUT
	lutErr       error
)

func getLUT(b *testing.B) (T, *LUT) {
	lutOnce.Do(func() {
		lutTransform = New(dist.Lognormal{Mu: 9.6, Sigma: 0.4})
		lutTable, lutErr = lutTransform.NewDefaultLUT()
	})
	if lutErr != nil {
		b.Fatal(lutErr)
	}
	return lutTransform, lutTable
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// BenchmarkTransformApplyExact maps a background path to the foreground
// through the exact CDF/quantile composition: go is the per-frame Apply
// loop, avx2 is ApplyTo on the vector kernel (skipped where it does not
// run). Both report ns/frame.
func BenchmarkTransformApplyExact(b *testing.B) {
	tr, _ := getLUT(b)
	xs, dst := benchNormals(applyLen)
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range xs {
				dst[j] = tr.Apply(x)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*applyLen), "ns/frame")
	})
	b.Run("avx2", func(b *testing.B) {
		if !exactKernel {
			b.Skip("no vector kernel on this processor")
		}
		for i := 0; i < b.N; i++ {
			tr.ApplyTo(dst, xs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*applyLen), "ns/frame")
	})
}

// BenchmarkTransformApplyLUT maps the same path through the precomputed
// monotone interpolation table (error within LUT.MaxError).
func BenchmarkTransformApplyLUT(b *testing.B) {
	_, lut := getLUT(b)
	xs, dst := benchNormals(applyLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lut.ApplyTo(dst, xs)
	}
}

func benchNormals(n int) (xs, dst []float64) {
	r := rng.New(4)
	xs = make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm()
	}
	return xs, make([]float64, n)
}
