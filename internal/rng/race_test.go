//go:build race

package rng

// The race detector instruments every memory access, which distorts the
// in-process timing ratio, so the timing test skips under it.
func init() { raceEnabled = true }
