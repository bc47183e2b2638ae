//go:build !amd64

package fft

// radix22Vec has no vector kernel off amd64: radix22 runs every stage.
func radix22Vec(z, u, w []complex128) bool { return false }
