package transform

import "vbrsim/internal/dist"

// exactBlock is how many frames the vector kernel stages at a time; its
// three scratch arrays live on the stack (3 KiB).
const exactBlock = 128

// applyVec maps the longest prefix of xs whose length is a multiple of
// four through the vector kernel (exact_amd64.s) into dst and returns its
// length. It returns 0, doing nothing, unless the kernel runs on this
// processor and the target is a dist.Normal or a dist.Lognormal. Every
// frame it writes carries the bits T.Apply gives: the lanes the kernel
// leaves NaN (erfc's far tail past |x| = √2/0.35, NaN and infinite input,
// an exp off its main path) are recomputed with T.Apply. dst may alias xs.
func (t T) applyVec(dst, xs []float64) int {
	if !exactKernel {
		return 0
	}
	var mu, sigma float64
	var logn bool
	switch d := t.Target.(type) {
	case dist.Lognormal:
		mu, sigma, logn = d.Mu, d.Sigma, true
	case dist.Normal:
		mu, sigma = d.Mu, d.Sigma
	default:
		return 0
	}
	n := len(xs) &^ 3
	var p, q, out [exactBlock]float64
	for lo := 0; lo < n; lo += exactBlock {
		m := min(exactBlock, n-lo)
		x := xs[lo : lo+m]
		exactLanes(out[:m], p[:m], q[:m], x, mu, sigma, logn)
		for i, y := range out[:m] {
			if y != y {
				y = t.Apply(x[i])
			}
			dst[lo+i] = y
		}
	}
	return n
}
