//go:build race

package hosking

func init() { raceEnabled = true }
