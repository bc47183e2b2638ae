//go:build !amd64

package rng

// polarVec has no vector kernel off amd64: polar does every pair.
func polarVec(out []complex128, u, v, s []float64) int { return 0 }
