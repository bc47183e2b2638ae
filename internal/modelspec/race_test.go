//go:build race

package modelspec

// The race detector's bookkeeping adds 48 B to a warm Gaussian open.
func init() { openRaceSlack = 48 }
