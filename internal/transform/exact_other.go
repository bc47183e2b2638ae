//go:build !amd64

package transform

// exactKernel is false off amd64: T.ApplyTo maps every frame with Apply.
const exactKernel = false

func exactLanes(out, p, q, xs []float64, mu, sigma float64, logn bool) {
	panic("transform: no vector kernel on this architecture")
}
