//go:build race

package statmon

// The race detector instruments every memory access, which distorts the
// in-process timing ratios, so the timing tests skip under it.
func init() { raceEnabled = true }
