//go:build race

package fft

func init() { raceEnabled = true }
