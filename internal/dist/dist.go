// Package dist implements the probability distributions the paper's modeling
// pipeline relies on. Every distribution exposes its CDF and quantile
// (inverse CDF) so it can serve as the foreground marginal F_Y in the
// transform Y = F_Y^{-1}(Phi(X)), plus a sampler for direct simulation.
//
// The set covers: Normal (the Gaussian background process), Gamma, Pareto and
// the hybrid Gamma/Pareto of Garrett & Willinger (the parametric video
// marginals from prior work the paper cites), Lognormal and Exponential
// (general-purpose), and Empirical (the histogram-inversion marginal the
// paper actually uses).
package dist

import (
	"errors"
	"math"
	"sort"

	"vbrsim/internal/rng"
)

// Distribution is a univariate law usable as a foreground marginal.
type Distribution interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the p-quantile for p in (0,1); implementations clamp
	// or extend sensibly at the endpoints.
	Quantile(p float64) float64
	// Sample draws one variate using r.
	Sample(r *rng.Source) float64
	// Mean returns the distribution mean (may be +Inf).
	Mean() float64
}

// ---------------------------------------------------------------------------
// Normal

// Normal is the Gaussian distribution N(Mu, Sigma^2).
type Normal struct {
	Mu    float64
	Sigma float64
}

// StdNormal is the standard normal N(0,1).
var StdNormal = Normal{Mu: 0, Sigma: 1}

// CDF returns the Gaussian CDF via erfc for accuracy in both tails.
func (n Normal) CDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Quantile returns the Gaussian quantile using Acklam's rational
// approximation refined by one Halley step, accurate to ~1e-15.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + float64(n.Sigma*stdNormalQuantile(p))
}

// Sample draws from N(Mu, Sigma^2).
func (n Normal) Sample(r *rng.Source) float64 { return n.Mu + n.Sigma*r.Norm() }

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// mulAdd returns x*y + z with the product rounded before the add, as amd64
// computes it: the conversion keeps a compiler that fuses multiply-adds
// (arm64's does) from rounding the two once.
func mulAdd(x, y, z float64) float64 { return float64(x*y) + z }

// stdNormalQuantile computes Phi^{-1}(p) for p in (0,1). It is the bit
// oracle of internal/transform's vector kernel, so every multiply-add
// rounds its product first (mulAdd) on every architecture.
func stdNormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam's algorithm.
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = mulAdd(mulAdd(mulAdd(mulAdd(mulAdd(c1, q, c2), q, c3), q, c4), q, c5), q, c6) /
			mulAdd(mulAdd(mulAdd(mulAdd(d1, q, d2), q, d3), q, d4), q, 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = mulAdd(mulAdd(mulAdd(mulAdd(mulAdd(a1, r, a2), r, a3), r, a4), r, a5), r, a6) * q /
			mulAdd(mulAdd(mulAdd(mulAdd(mulAdd(b1, r, b2), r, b3), r, b4), r, b5), r, 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -mulAdd(mulAdd(mulAdd(mulAdd(mulAdd(c1, q, c2), q, c3), q, c4), q, c5), q, c6) /
			mulAdd(mulAdd(mulAdd(mulAdd(d1, q, d2), q, d3), q, d4), q, 1)
	}
	// One Halley refinement using the exact CDF.
	e := float64(0.5*math.Erfc(-x/math.Sqrt2)) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+float64(x*u/2))
	return x
}

// ---------------------------------------------------------------------------
// Pareto

// Pareto is the classical Pareto distribution with shape Alpha and minimum
// Xm: P(X > x) = (Xm/x)^Alpha for x >= Xm.
type Pareto struct {
	Alpha float64
	Xm    float64
}

// CDF returns 1 - (Xm/x)^Alpha.
func (p Pareto) CDF(x float64) float64 {
	if x <= p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Quantile returns Xm / (1-u)^(1/Alpha).
func (p Pareto) Quantile(u float64) float64 {
	if u <= 0 {
		return p.Xm
	}
	if u >= 1 {
		return math.Inf(1)
	}
	return p.Xm / math.Pow(1-u, 1/p.Alpha)
}

// Sample draws a Pareto variate.
func (p Pareto) Sample(r *rng.Source) float64 { return r.Pareto(p.Alpha, p.Xm) }

// Mean returns Alpha*Xm/(Alpha-1), or +Inf when Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// ---------------------------------------------------------------------------
// Lognormal

// Lognormal is exp(N(Mu, Sigma^2)).
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// CDF returns the lognormal CDF.
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return Normal{Mu: l.Mu, Sigma: l.Sigma}.CDF(math.Log(x))
}

// Quantile returns exp of the underlying normal quantile.
func (l Lognormal) Quantile(p float64) float64 {
	return math.Exp(Normal{Mu: l.Mu, Sigma: l.Sigma}.Quantile(p))
}

// Sample draws a lognormal variate.
func (l Lognormal) Sample(r *rng.Source) float64 { return r.Lognormal(l.Mu, l.Sigma) }

// Mean returns exp(Mu + Sigma^2/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// ---------------------------------------------------------------------------
// Gamma

// Gamma has the given Shape and Scale (mean Shape*Scale).
type Gamma struct {
	Shape float64
	Scale float64
}

// CDF returns the regularized lower incomplete gamma P(Shape, x/Scale).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regIncGammaLower(g.Shape, x/g.Scale)
}

// PDF returns the gamma density at x.
func (g Gamma) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(g.Shape)
	return math.Exp((g.Shape-1)*math.Log(x/g.Scale)-x/g.Scale-lg) / g.Scale
}

// Quantile inverts the CDF by a Wilson–Hilferty initial guess refined with
// Newton iterations (falling back to bisection when Newton steps leave the
// bracket).
func (g Gamma) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Wilson–Hilferty: if Z ~ N(0,1), X ≈ shape*(1 - 1/(9k) + z/(3*sqrt(k)))^3.
	k := g.Shape
	z := stdNormalQuantile(p)
	x := k * math.Pow(1-1/(9*k)+z/(3*math.Sqrt(k)), 3)
	if x <= 0 || math.IsNaN(x) {
		x = k * math.Exp((math.Log(p)+lgamma(k+1))/k) // small-shape seed
		if x <= 0 || math.IsNaN(x) {
			x = 1e-8
		}
	}
	lo, hi := 0.0, math.Max(4*x, k*64)
	for regIncGammaLower(k, hi) < p {
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		f := regIncGammaLower(k, x) - p
		if math.Abs(f) < 1e-14 {
			break
		}
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		lg, _ := math.Lgamma(k)
		pdf := math.Exp((k-1)*math.Log(x) - x - lg)
		var next float64
		if pdf > 0 {
			next = x - f/pdf
		}
		if pdf <= 0 || next <= lo || next >= hi {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) < 1e-13*(1+x) {
			x = next
			break
		}
		x = next
	}
	return x * g.Scale
}

// Sample draws a gamma variate.
func (g Gamma) Sample(r *rng.Source) float64 { return r.Gamma(g.Shape, g.Scale) }

// Mean returns Shape*Scale.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// regIncGammaLower computes the regularized lower incomplete gamma function
// P(a, x) using the series expansion for x < a+1 and the continued fraction
// for the complement otherwise (Numerical Recipes style).
func regIncGammaLower(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

func gammaSeries(a, x float64) float64 {
	const maxIter = 500
	lg := lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	const maxIter = 500
	const tiny = 1e-300
	lg := lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ---------------------------------------------------------------------------
// GammaPareto hybrid

// GammaPareto is the hybrid marginal used by Garrett & Willinger for VBR
// video: a Gamma body up to the cut point and a Pareto tail beyond it, glued
// continuously. The tail carries probability mass 1 - Gamma.CDF(Cut); the
// Pareto tail is conditioned to start at Cut.
type GammaPareto struct {
	Body Gamma
	Tail Pareto  // Tail.Xm must equal Cut
	Cut  float64 // switch point between body and tail
}

// NewGammaPareto builds a hybrid with the Pareto tail anchored at cut.
func NewGammaPareto(body Gamma, alpha, cut float64) (*GammaPareto, error) {
	if cut <= 0 {
		return nil, errors.New("dist: GammaPareto cut must be positive")
	}
	if alpha <= 0 {
		return nil, errors.New("dist: GammaPareto alpha must be positive")
	}
	return &GammaPareto{Body: body, Tail: Pareto{Alpha: alpha, Xm: cut}, Cut: cut}, nil
}

// CDF returns the hybrid CDF: the Gamma body below Cut and a rescaled Pareto
// tail above it.
func (gp *GammaPareto) CDF(x float64) float64 {
	pc := gp.Body.CDF(gp.Cut)
	if x < gp.Cut {
		return gp.Body.CDF(x)
	}
	return pc + (1-pc)*gp.Tail.CDF(x)
}

// Quantile inverts the hybrid CDF.
func (gp *GammaPareto) Quantile(p float64) float64 {
	pc := gp.Body.CDF(gp.Cut)
	if p < pc {
		return gp.Body.Quantile(p)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Conditional tail probability.
	u := (p - pc) / (1 - pc)
	return gp.Tail.Quantile(u)
}

// Sample draws from the hybrid by probability mixing.
func (gp *GammaPareto) Sample(r *rng.Source) float64 {
	pc := gp.Body.CDF(gp.Cut)
	if r.Float64() < pc {
		// Rejection from the truncated body.
		for {
			v := gp.Body.Sample(r)
			if v < gp.Cut {
				return v
			}
		}
	}
	return gp.Tail.Sample(r)
}

// Mean integrates the hybrid mean: body part by numerical quadrature of the
// truncated Gamma plus the Pareto tail mean.
func (gp *GammaPareto) Mean() float64 {
	pc := gp.Body.CDF(gp.Cut)
	// E[X; X<Cut] for Gamma(shape,scale) = shape*scale*P(shape+1, Cut/scale).
	bodyPart := gp.Body.Shape * gp.Body.Scale * regIncGammaLower(gp.Body.Shape+1, gp.Cut/gp.Body.Scale)
	return bodyPart + (1-pc)*gp.Tail.Mean()
}

// ---------------------------------------------------------------------------
// Empirical

// Empirical is the histogram-inversion marginal the paper uses: the CDF is
// the sample ECDF and the quantile linearly interpolates between order
// statistics. It is the default F_Y for the unified model.
type Empirical struct {
	sorted []float64
	mean   float64
}

// NewEmpirical builds an empirical distribution from a sample. It returns an
// error for an empty sample and for one containing NaN, which would break
// the sorted-order invariant behind CDF and Quantile.
func NewEmpirical(sample []float64) (*Empirical, error) {
	if len(sample) == 0 {
		return nil, errors.New("dist: empty sample for Empirical")
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	// sort.Float64s orders NaN before everything, so one check covers all.
	if math.IsNaN(s[0]) {
		return nil, errors.New("dist: sample for Empirical contains NaN")
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return &Empirical{sorted: s, mean: sum / float64(len(s))}, nil
}

// CDF returns the fraction of the sample <= x.
func (e *Empirical) CDF(x float64) float64 {
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the interpolated p-quantile of the sample. p outside
// [0,1] is clamped, so the transform h(X) never produces values beyond the
// observed range — exactly the histogram-inversion behaviour of the paper.
// A NaN p yields NaN rather than an out-of-range index.
func (e *Empirical) Quantile(p float64) float64 {
	n := len(e.sorted)
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[n-1]
	}
	h := p * float64(n-1)
	i := int(h)
	frac := h - float64(i)
	if i+1 >= n {
		return e.sorted[n-1]
	}
	return e.sorted[i]*(1-frac) + e.sorted[i+1]*frac
}

// Sample draws by inversion of a uniform variate.
func (e *Empirical) Sample(r *rng.Source) float64 { return e.Quantile(r.Float64()) }

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 { return e.mean }

// Len returns the number of observations backing the distribution.
func (e *Empirical) Len() int { return len(e.sorted) }

// Min and Max return the sample extremes.
func (e *Empirical) Min() float64 { return e.sorted[0] }

// Max returns the largest observation.
func (e *Empirical) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Values returns a copy of the sorted sample backing the distribution, so a
// fitted marginal can be serialized and rebuilt exactly (NewEmpirical on the
// returned slice reproduces the identical distribution).
func (e *Empirical) Values() []float64 { return append([]float64(nil), e.sorted...) }
