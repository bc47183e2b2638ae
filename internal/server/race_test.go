//go:build race

package server

// The race detector's shadow memory distorts heap deltas.
func init() { raceEnabled = true }
