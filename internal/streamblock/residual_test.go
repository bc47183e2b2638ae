package streamblock

import (
	"math"
	"testing"

	"vbrsim/internal/rng"
)

// arResidualRows is the row-at-a-time residual pass arResidual replaces.
func arResidualRows(diff, phi []float64) {
	for t := len(diff) - 1; t >= 1; t-- {
		var acc float64
		for k := 1; k <= t; k++ {
			acc += phi[k] * diff[t-k]
		}
		diff[t] -= acc
	}
}

// TestARResidualMatchesRows pins the four-row residual pass to the row-at-
// a-time loop bit for bit, across orders that exercise no full group, one
// group, a group plus leftover rows, and the paper model's p = 361.
func TestARResidualMatchesRows(t *testing.T) {
	r := rng.New(17)
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 361} {
		phi := make([]float64, p+1)
		diff := make([]float64, p)
		// Coefficients of one scale make every term's rounding matter, so
		// any change in summation order shows in the bits.
		for i := 1; i <= p; i++ {
			phi[i] = r.Norm()
		}
		for i := range diff {
			diff[i] = r.Norm()
		}
		want := append([]float64(nil), diff...)
		arResidualRows(want, phi)
		arResidual(diff, phi)
		for i := range want {
			if math.Float64bits(diff[i]) != math.Float64bits(want[i]) {
				t.Fatalf("p=%d row %d: four-row %v, row-at-a-time %v", p, i, diff[i], want[i])
			}
		}
	}
}

func BenchmarkARResidual(b *testing.B) {
	const p = 361
	r := rng.New(3)
	phi := make([]float64, p+1)
	src := make([]float64, p)
	for i := 1; i <= p; i++ {
		phi[i] = r.Norm() / float64(i)
	}
	for i := range src {
		src[i] = r.Norm()
	}
	diff := make([]float64, p)
	for _, bc := range []struct {
		name string
		f    func(diff, phi []float64)
	}{{"rows", arResidualRows}, {"four", arResidual}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(diff, src)
				bc.f(diff, phi)
			}
		})
	}
}
