package hosking

import "vbrsim/internal/cpu"

// lanesAVX2 is lanes over all eight lanes, len(row) ≥ 1 and n ≥ 1, with h
// holding at least len(row)+n rows. See lanes_amd64.s for why
// every lane is bit-identical to lanesGo and to Next.
//
//go:noescape
func lanesAVX2(h [][Lanes]float64, row []float64, n int)

// lanesVec runs lanes with the AVX2 kernel and reports true, or reports
// false when the processor lacks AVX2.
func lanesVec(h [][Lanes]float64, row []float64, n int) bool {
	if !cpu.AVX2 {
		return false
	}
	_ = h[len(row)+n-1]
	lanesAVX2(h, row, n)
	return true
}
