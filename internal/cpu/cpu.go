// Package cpu reports the processor features the vector kernels of
// internal/rng, internal/fft, internal/streamblock, internal/hosking and
// internal/transform need. It detects them once, at package
// initialization, so every kernel dispatches on the same answer.
package cpu

// AVX2 reports whether the processor executes AVX2 instructions and the
// operating system saves the 256-bit YMM registers across context
// switches. It is false on every architecture but amd64.
var AVX2 bool

// FMA reports whether the processor executes the FMA3 fused multiply-add
// instructions and the operating system saves the YMM registers. With AVX2
// it is exactly the condition under which math.Exp takes its fused branch
// on amd64. It is false on every architecture but amd64.
var FMA bool
