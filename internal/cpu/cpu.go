// Package cpu reports the processor features the vector kernels of
// internal/rng and internal/fft need. It detects them once, at package
// initialization, so every kernel dispatches on the same answer.
package cpu

// AVX2 reports whether the processor executes AVX2 instructions and the
// operating system saves the 256-bit YMM registers across context
// switches. It is false on every architecture but amd64.
var AVX2 bool
