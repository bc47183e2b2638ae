//go:build race

package streamblock

func init() { raceEnabled = true }
