package rng

import "vbrsim/internal/cpu"

// polarAVX2 is polar over len(out) pairs, four lanes at a time; len(out)
// must be a multiple of four and u, v, s at least as long. See
// polar_amd64.s for why every lane is bit-identical to polar.
//
//go:noescape
func polarAVX2(out []complex128, u, v, s []float64)

// polarVec transforms the longest prefix of out whose length is a multiple
// of four with the AVX2 kernel and returns its length, or returns 0 when
// the processor lacks AVX2.
func polarVec(out []complex128, u, v, s []float64) int {
	if !cpu.AVX2 {
		return 0
	}
	n := len(out) &^ 3
	if n > 0 {
		polarAVX2(out[:n], u[:n], v[:n], s[:n])
	}
	return n
}
