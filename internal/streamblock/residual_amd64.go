package streamblock

import "vbrsim/internal/cpu"

// residualAVX2 sums 16 rows of the AR residual over k = 1..K, K = len(phi)
// (phi is phi[1:K+1]), from x = diff[:K+15]: acc[r] receives
// sum_k phi[k]·x[K+r−k] in ascending k, row t−15+r's sum over the k every
// one of the 16 rows has. See residual_amd64.s for why each lane is
// bit-identical to the scalar sum.
//
//go:noescape
func residualAVX2(acc *[16]float64, phi, x []float64)

// arResidualVec runs arResidual's rows 16 at a time with the AVX2 kernel,
// from the top row down while a group's shared k range is not empty, and
// returns the top row it left for the Go loop (every row when the processor
// lacks AVX2). For rows t−15..t the kernel sums k = 1..t−15; row t−15+r
// still needs k = t−14..t−15+r, which this loop adds in ascending order
// before any of the 16 rows is written, so every row is the row-at-a-time
// sum over the entry values.
func arResidualVec(diff, phi []float64) int {
	t := len(diff) - 1
	if !cpu.AVX2 {
		return t
	}
	var acc [16]float64
	for ; t >= 16; t -= 16 {
		kk := t - 15
		residualAVX2(&acc, phi[1:kk+1], diff[:t])
		for r := 1; r < 16; r++ {
			row := t - 15 + r
			a := acc[r]
			for k := kk + 1; k <= row; k++ {
				a += float64(phi[k] * diff[row-k])
			}
			acc[r] = a
		}
		for r, a := range acc {
			diff[t-15+r] -= a
		}
	}
	return t
}
