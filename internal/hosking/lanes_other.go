//go:build !amd64

package hosking

// lanesVec has no vector kernel off amd64: lanesGo runs every step.
func lanesVec(h [][Lanes]float64, row []float64, n int) bool { return false }
