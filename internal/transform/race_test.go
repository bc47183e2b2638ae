//go:build race

package transform

// The race detector instruments every memory access, which distorts the
// in-process timing ratio, so the timing test skips under it.
func init() { raceEnabled = true }
