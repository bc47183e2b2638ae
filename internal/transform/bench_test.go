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

// BenchmarkTransformApplyExact maps a background path to the foreground
// through the exact CDF/quantile composition.
func BenchmarkTransformApplyExact(b *testing.B) {
	tr, _ := getLUT(b)
	xs, dst := benchNormals(applyLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ApplyTo(dst, xs)
	}
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
