// Package tes implements the TES (Transform-Expand-Sample) processes of
// Melamed et al., the modeling technique the paper cites as the prior
// state of the art for matching both a marginal and an autocorrelation
// structure ([22] and the TES-based video models [15], [21], [29]).
//
// A TES+ background sequence evolves on the unit circle,
//
//	U_n = frac(U_{n-1} + V_n),
//
// with iid innovations V_n; modular addition keeps U_n exactly
// Uniform(0,1), so the foreground X_n = F^{-1}(S_zeta(U_n)) has exactly
// the target marginal F, while the innovation width controls the
// autocorrelation. The stitching transform
//
//	S_zeta(y) = y/zeta             for 0 <= y < zeta
//	          = (1-y)/(1-zeta)     for zeta <= y < 1
//
// removes the discontinuity of the circle at 0/1 (zeta in (0,1); zeta = 1
// disables stitching). TES- alternates U'_n = U_n (even n) and 1 - U_n
// (odd n), producing the alternating/negative short-lag correlations TES+
// cannot.
//
// TES processes have exponentially decaying (SRD) autocorrelations — which
// is exactly the limitation the paper's unified self-similar approach
// overcomes; the package exists as the honest baseline.
package tes

import (
	"errors"
	"math"

	"vbrsim/internal/dist"
	"vbrsim/internal/rng"
)

// Config parameterizes a TES process.
type Config struct {
	// Alpha is the innovation width in (0, 1]: V_n ~ Uniform(-Alpha/2,
	// Alpha/2). Small Alpha means strong positive background correlation.
	Alpha float64
	// Zeta is the stitching parameter in (0, 1]; 1 disables stitching.
	// A common default is 0.5 (symmetric stitching).
	Zeta float64
	// Marginal is the foreground distribution F.
	Marginal dist.Distribution
	// Minus selects the TES- variant (alternating reflection).
	Minus bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return errors.New("tes: Alpha must lie in (0, 1]")
	}
	if c.Zeta <= 0 || c.Zeta > 1 {
		return errors.New("tes: Zeta must lie in (0, 1]")
	}
	if c.Marginal == nil {
		return errors.New("tes: nil marginal")
	}
	return nil
}

// Generator produces one TES sample path.
type Generator struct {
	cfg Config
	rng *rng.Source
	u   float64
	n   int
}

// New seeds a generator with a stationary (uniform) starting point.
func New(cfg Config, r *rng.Source) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, rng: r, u: r.Float64()}, nil
}

// Pos returns the number of samples drawn so far (the index of the next
// sample Next will produce).
func (g *Generator) Pos() int { return g.n }

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Reseed rewinds the generator to sample 0 of the trace keyed by seed: the
// rng is reseeded in place and a fresh stationary starting point is drawn.
// Reseeding with the same seed replays the stream bit-identically.
func (g *Generator) Reseed(seed uint64) {
	g.rng.Reseed(seed)
	g.u = g.rng.Float64()
	g.n = 0
}

// stitch applies S_zeta.
func stitch(y, zeta float64) float64 {
	if zeta >= 1 {
		return y
	}
	if y < zeta {
		return y / zeta
	}
	return (1 - y) / (1 - zeta)
}

// NextBackground advances the background process and returns the (possibly
// reflected) uniform variate before stitching.
func (g *Generator) NextBackground() float64 {
	v := g.cfg.Alpha * (g.rng.Float64() - 0.5)
	g.u += v
	g.u -= math.Floor(g.u) // frac
	out := g.u
	if g.cfg.Minus && g.n%2 == 1 {
		out = 1 - out
	}
	g.n++
	return out
}

// Next returns the next foreground sample X_n = F^{-1}(S_zeta(U_n)).
func (g *Generator) Next() float64 {
	u := stitch(g.NextBackground(), g.cfg.Zeta)
	// Clamp away from the endpoints for marginals with infinite support.
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	if u >= 1 {
		u = 1 - 1e-16
	}
	return g.cfg.Marginal.Quantile(u)
}

// Path returns n consecutive foreground samples.
func (g *Generator) Path(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Source adapts a TES configuration to queue.PathSource: each replication
// gets an independent stationary generator.
type Source struct {
	Cfg Config
}

// ArrivalPath draws one replication path.
func (s Source) ArrivalPath(r *rng.Source, k int) []float64 {
	g, err := New(s.Cfg, r)
	if err != nil {
		// Config errors are programmer errors at this point; surface loudly.
		panic("tes: invalid source config: " + err.Error())
	}
	return g.Path(k)
}

// MeanRate returns the marginal mean.
func (s Source) MeanRate() float64 { return s.Cfg.Marginal.Mean() }

// BackgroundLag1 returns the exact lag-1 autocorrelation of the *stitched*
// background process for the uniform innovation of width alpha with
// symmetric stitching (zeta = 1/2), derived from the Fourier expansion of
// the stitched circle process:
//
//	rho(k) = (96/pi^4) * sum_{odd i} sinc(i*pi*alpha)^k / i^4,
//
// evaluated at k = 1. It is used to calibrate Alpha to a desired
// correlation and to test the implementation.
func BackgroundLag1(alpha float64) float64 {
	return BackgroundACF(alpha, 1)
}

// BackgroundACF returns the exact lag-k autocorrelation of the stitched
// (zeta = 1/2) TES+ background process with Uniform(-alpha/2, alpha/2)
// innovations.
func BackgroundACF(alpha float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	var sum float64
	for i := 1; i <= 199; i += 2 {
		x := float64(i) * math.Pi * alpha
		s := 1.0
		if x != 0 {
			s = math.Sin(x) / x
		}
		sum += math.Pow(s, float64(k)) / math.Pow(float64(i), 4)
	}
	return sum * 96 / math.Pow(math.Pi, 4)
}

// CalibrateAlpha returns the innovation width whose stitched background
// lag-1 autocorrelation is closest to rho (rho in (0,1)), by bisection.
func CalibrateAlpha(rho float64) (float64, error) {
	if rho <= 0 || rho >= 1 {
		return 0, errors.New("tes: target correlation must lie in (0,1)")
	}
	lo, hi := 1e-6, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if BackgroundLag1(mid) > rho {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
