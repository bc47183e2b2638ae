//go:build race

package modelspec

// The race detector's bookkeeping adds 48 B to a warm Gaussian open, and
// it slows the code timing tests measure.
func init() {
	openRaceSlack = 48
	raceEnabled = true
}
