package fft

import "vbrsim/internal/cpu"

// radix22AVX2 is radix22 with two complex128 butterflies per instruction;
// q = len(u) must be even. See radix22_amd64.s for why it is bit-identical.
//
//go:noescape
func radix22AVX2(z, u, w []complex128)

// radix22Vec runs one radix-2² double stage with the AVX2 kernel and
// reports whether it did: not without AVX2, and not at q = 1, where a
// block holds one butterfly.
func radix22Vec(z, u, w []complex128) bool {
	if !cpu.AVX2 || len(u) < 2 {
		return false
	}
	radix22AVX2(z, u, w)
	return true
}
