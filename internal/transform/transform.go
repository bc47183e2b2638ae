// Package transform implements the marginal-matching transform at the core
// of the paper's unified approach (eq. 7):
//
//	Y_k = h(X_k) = F_Y^{-1}(F_X(X_k))
//
// where X is the zero-mean unit-variance Gaussian background process and F_Y
// is the desired foreground marginal (in the paper, the inverted empirical
// histogram). The package also computes the "attenuation" factor of
// Appendix A,
//
//	a = [E(h(X)X)]^2 / E(h~^2(X)) ,   h~ = h - E h(X),
//
// both analytically (by quadrature against the standard normal density,
// which is exactly the limit derived in the appendix) and empirically (by
// measuring the ACF ratio r_Y(k)/r_X(k) at large lags on simulated paths,
// which is what the paper does in Step 3).
package transform

import (
	"context"
	"errors"
	"math"

	"vbrsim/internal/dist"
	"vbrsim/internal/fft"
	"vbrsim/internal/hosking"
	"vbrsim/internal/par"
	"vbrsim/internal/rng"
)

// T is the histogram-inversion transform h from a standard normal background
// variate to the target foreground marginal.
type T struct {
	// Target is the foreground marginal F_Y.
	Target dist.Distribution
}

// New returns the transform onto the given marginal.
func New(target dist.Distribution) T { return T{Target: target} }

// Apply computes h(x) = F_Y^{-1}(Phi(x)).
func (t T) Apply(x float64) float64 {
	return t.Target.Quantile(dist.StdNormal.CDF(x))
}

// ApplySlice maps a whole background path to the foreground, allocating the
// result.
func (t T) ApplySlice(xs []float64) []float64 {
	return t.ApplyTo(make([]float64, len(xs)), xs)
}

// ApplyTo maps xs into dst (which may alias xs, enabling in-place
// transformation of reused path buffers) and returns dst[:len(xs)]. Every
// frame carries the bits Apply gives it; a dist.Normal or dist.Lognormal
// target runs the vector kernel where the processor has one (applyVec).
func (t T) ApplyTo(dst, xs []float64) []float64 {
	dst = dst[:len(xs)]
	for i := t.applyVec(dst, xs); i < len(xs); i++ {
		dst[i] = t.Apply(xs[i])
	}
	return dst
}

// Table tabulates h over [lo, hi] at n+1 evenly spaced points, for plotting
// (the paper's Fig. 2).
func (t T) Table(lo, hi float64, n int) (xs, hs []float64) {
	xs = make([]float64, n+1)
	hs = make([]float64, n+1)
	for i := 0; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n)
		xs[i] = x
		hs[i] = t.Apply(x)
	}
	return xs, hs
}

// Attenuation computes the analytic attenuation factor
// a = [E(h(X)X)]^2 / Var(h(X)) with X ~ N(0,1), by composite Simpson
// quadrature over [-8, 8] (the normal mass outside is ~1e-15). The result
// lies in [0, 1]; it equals 1 exactly when h is affine.
func (t T) Attenuation() float64 {
	const (
		lo, hi = -8.0, 8.0
		n      = 1 << 13 // Simpson intervals (even)
	)
	hstep := (hi - lo) / n
	norm := 1 / math.Sqrt(2*math.Pi)
	var eh, ehx, eh2 float64
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*hstep
		w := 2.0
		switch {
		case i == 0 || i == n:
			w = 1
		case i%2 == 1:
			w = 4
		}
		phi := norm * math.Exp(-x*x/2)
		hx := t.Apply(x)
		eh += w * hx * phi
		ehx += w * hx * x * phi
		eh2 += w * hx * hx * phi
	}
	scale := hstep / 3
	eh *= scale
	ehx *= scale
	eh2 *= scale
	variance := eh2 - eh*eh
	if variance <= 0 {
		return 1
	}
	a := ehx * ehx / variance
	if a > 1 {
		a = 1
	}
	return a
}

// MeasureOptions controls empirical attenuation measurement.
type MeasureOptions struct {
	// Lags are the large lags at which the ratio r_Y(k)/r_X(k) is measured;
	// default {100, 150, 200}.
	Lags []int
	// Replications is the number of background paths pooled; default 20.
	Replications int
	// Seed drives the measurement.
	Seed uint64
	// Workers caps the goroutines the replications fan across; <= 0 selects
	// GOMAXPROCS. The result is bit-identical for every setting: each
	// replication's generator is split from the seed in replication order
	// (never indexed by worker), and the pooled curves are reduced in
	// replication order.
	Workers int
}

// MeasureCtx estimates the attenuation factor empirically, exactly as the
// paper's Step 3: generate X with the plan, map to Y = h(X), and average the
// ratio of foreground to background ACF at large lags. The pathLen is
// capped at the plan length. ctx is polled between replications, so a
// canceled caller waits at most one path generation.
// Replications run on a worker pool (see MeasureOptions.Workers) with one
// generator per replication, split from the seed in replication order, so
// the measurement is invariant under the worker count.
func MeasureCtx(ctx context.Context, plan *hosking.Plan, t T, pathLen int, opt MeasureOptions) (float64, error) {
	if pathLen > plan.Len() {
		pathLen = plan.Len()
	}
	if len(opt.Lags) == 0 {
		opt.Lags = []int{100, 150, 200}
	}
	if opt.Replications <= 0 {
		opt.Replications = 20
	}
	maxLag := 0
	for _, l := range opt.Lags {
		if l <= 0 {
			return 0, errors.New("transform: non-positive measurement lag")
		}
		if l > maxLag {
			maxLag = l
		}
	}
	if maxLag >= pathLen/2 {
		return 0, errors.New("transform: measurement lag too large for path length")
	}
	reps := opt.Replications
	root := rng.New(opt.Seed)
	sources := make([]*rng.Source, reps)
	for i := range sources {
		sources[i] = root.Split()
	}
	meanY := t.Target.Mean()
	lagN := maxLag + 1
	// Per-replication autocovariance curves, deposited by replication index
	// and reduced sequentially below: the float sums are computed in the same
	// order regardless of how replications interleave across workers.
	axAll := make([]float64, reps*lagN)
	ayAll := make([]float64, reps*lagN)
	workers := par.Workers(opt.Workers, reps)
	type arena struct {
		x, y []float64
		s    fft.Scratch
	}
	arenas := make([]arena, workers)
	err := par.ForCtx(ctx, workers, reps, func(w, rep int) error {
		ar := &arenas[w]
		if ar.x == nil {
			ar.x = make([]float64, pathLen)
			ar.y = make([]float64, pathLen)
		}
		plan.Generate(sources[rep], ar.x)
		t.ApplyTo(ar.y, ar.x)
		fft.AutocovarianceKnownMeanInto(axAll[rep*lagN:(rep+1)*lagN], ar.x, 0, &ar.s)
		fft.AutocovarianceKnownMeanInto(ayAll[rep*lagN:(rep+1)*lagN], ar.y, meanY, &ar.s)
		return nil
	})
	if err != nil {
		return 0, err
	}
	xACov := make([]float64, lagN)
	yACov := make([]float64, lagN)
	for rep := 0; rep < reps; rep++ {
		ax := axAll[rep*lagN : (rep+1)*lagN]
		ay := ayAll[rep*lagN : (rep+1)*lagN]
		for k := range xACov {
			xACov[k] += ax[k]
			yACov[k] += ay[k]
		}
	}
	var sum float64
	count := 0
	for _, l := range opt.Lags {
		rx := xACov[l] / xACov[0]
		ry := yACov[l] / yACov[0]
		if rx <= 0 {
			continue
		}
		sum += ry / rx
		count++
	}
	if count == 0 {
		return 0, errors.New("transform: background ACF vanished at all measurement lags")
	}
	a := sum / float64(count)
	if a <= 0 {
		return 0, errors.New("transform: measured non-positive attenuation")
	}
	if a > 1 {
		a = 1
	}
	return a, nil
}
