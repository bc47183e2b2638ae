//go:build !amd64

package streamblock

// arResidualVec has no vector kernel off amd64: arResidual's Go loop runs
// every row.
func arResidualVec(diff, phi []float64) int { return len(diff) - 1 }
