// Package acf provides the autocorrelation-function models at the heart of
// the paper's unified approach, together with the fitting machinery of
// Section 3.2:
//
//   - exponential SRD models exp(-lambda*k),
//   - power-law LRD models L*k^(-beta),
//   - the composite "knee" model of eqs. (10)-(12) that splices the two,
//   - the exact fractional Gaussian noise (fGn) ACF,
//   - knee detection and least-squares fitting from an empirical ACF, and
//   - attenuation compensation (Step 4, eq. 14).
//
// An ACF model maps a non-negative integer lag to a correlation; every model
// returns exactly 1 at lag 0.
package acf

import (
	"errors"
	"fmt"
	"math"

	"vbrsim/internal/stats"
)

// Model is an autocorrelation function r(k) defined for integer lags k >= 0
// with r(0) == 1.
type Model interface {
	// At returns r(k). Implementations must return 1 for k <= 0.
	At(k int) float64
}

// Table materializes the first n+1 lags (0..n) of a model.
func Table(m Model, n int) []float64 {
	out := make([]float64, n+1)
	for k := range out {
		out[k] = m.At(k)
	}
	return out
}

// ---------------------------------------------------------------------------
// Elementary models

// Exponential is the SRD model r(k) = exp(-Lambda*k).
type Exponential struct {
	Lambda float64
}

// At returns exp(-Lambda*k).
func (e Exponential) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	return math.Exp(-e.Lambda * float64(k))
}

// PowerLaw is the LRD model r(k) = L * k^(-Beta) for k >= 1.
// Beta in (0,1) corresponds to Hurst parameter H = 1 - Beta/2.
type PowerLaw struct {
	L    float64
	Beta float64
}

// At returns L*k^(-Beta), clamped to 1.
func (p PowerLaw) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	v := p.L * math.Pow(float64(k), -p.Beta)
	if v > 1 {
		return 1
	}
	return v
}

// FGN is the exact autocorrelation of fractional Gaussian noise with Hurst
// parameter H: r(k) = ((k+1)^2H - 2k^2H + (k-1)^2H)/2.
type FGN struct {
	H float64
}

// At returns the exact fGn autocorrelation at lag k.
func (f FGN) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	twoH := 2 * f.H
	kf := float64(k)
	return 0.5 * (math.Pow(kf+1, twoH) - 2*math.Pow(kf, twoH) + math.Pow(kf-1, twoH))
}

// White is the trivial iid model: r(0)=1, r(k)=0 otherwise.
type White struct{}

// At returns 1 at lag 0 and 0 elsewhere.
func (White) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Composite knee model (paper eqs. 10-12)

// Composite is the paper's unified ACF:
//
//	r(k) = sum_i w_i exp(-lambda_i k)   for 1 <= k < Knee  (SRD part)
//	r(k) = L k^(-Beta)                  for k >= Knee      (LRD part)
//
// The weights should sum to 1 (eq. 11) so that r(0+) -> 1, and continuity at
// the knee (eq. 12) ties L to the exponential sum; both are the fitter's
// responsibility, not enforced here, so that deliberately discontinuous
// variants can be explored.
type Composite struct {
	Weights []float64 // w_i, should sum to 1
	Rates   []float64 // lambda_i, parallel to Weights
	L       float64   // power-law level
	Beta    float64   // power-law exponent (H = 1 - Beta/2)
	Knee    int       // first lag of the LRD regime, Kt
}

// At evaluates the composite model at lag k.
func (c Composite) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	if k < c.Knee {
		return c.srdValue(float64(k))
	}
	v := c.L * math.Pow(float64(k), -c.Beta)
	if v > 1 {
		return 1
	}
	return v
}

// Hurst returns the Hurst parameter implied by the LRD tail.
func (c Composite) Hurst() float64 { return 1 - c.Beta/2 }

// ContinuityGap returns the difference between the SRD and LRD values at the
// knee, |sum_i w_i exp(-lambda_i Kt) - L Kt^-Beta| (eq. 12 residual).
func (c Composite) ContinuityGap() float64 {
	if c.Knee <= 0 {
		return 0
	}
	lrd := c.L * math.Pow(float64(c.Knee), -c.Beta)
	return math.Abs(c.srdValue(float64(c.Knee)) - lrd)
}

// Validate checks structural invariants: matching weight/rate lengths,
// positive rates, Beta in (0,1), positive L, positive knee.
func (c Composite) Validate() error {
	if len(c.Weights) != len(c.Rates) {
		return errors.New("acf: composite weights/rates length mismatch")
	}
	if len(c.Weights) == 0 {
		return errors.New("acf: composite has no SRD components")
	}
	for i, r := range c.Rates {
		if r <= 0 {
			return fmt.Errorf("acf: composite rate %d is non-positive", i)
		}
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("acf: composite beta %v outside (0,1)", c.Beta)
	}
	if c.L <= 0 {
		return errors.New("acf: composite L is non-positive")
	}
	if c.Knee <= 1 {
		return errors.New("acf: composite knee must exceed 1")
	}
	return nil
}

// Continuous returns a copy of the composite adjusted so that the SRD and
// LRD branches meet exactly at the knee (eq. 12). For a single-exponential
// SRD the rate is re-solved as in eq. (14), preserving the LRD tail exactly;
// for multi-exponential SRDs the power-law level L is re-anchored instead.
// Exact continuity matters in practice: a composite with even a small jump
// at the knee is generally not a positive-definite correlation function, so
// Hosking's recursion breaks down shortly after the knee on the raw fit.
func (c Composite) Continuous() Composite {
	if c.Knee <= 0 {
		return c
	}
	out := c
	lrdAtKnee := c.L * math.Pow(float64(c.Knee), -c.Beta)
	if len(c.Weights) == 1 && lrdAtKnee > 0 && lrdAtKnee < 1 {
		out.Weights = []float64{1}
		out.Rates = []float64{-math.Log(lrdAtKnee) / float64(c.Knee)}
		return out
	}
	out.L = c.srdValue(float64(c.Knee)) * math.Pow(float64(c.Knee), c.Beta)
	return out
}

// srdValue returns the SRD branch value sum_i w_i exp(-lambda_i k).
func (c Composite) srdValue(k float64) float64 {
	var s float64
	for i, w := range c.Weights {
		s += w * math.Exp(-c.Rates[i]*k)
	}
	return s
}

// srdSlope returns the derivative of the SRD branch, -sum w_i lambda_i
// exp(-lambda_i k) (negative for decaying components).
func (c Composite) srdSlope(k float64) float64 {
	var s float64
	for i, w := range c.Weights {
		s -= w * c.Rates[i] * math.Exp(-c.Rates[i]*k)
	}
	return s
}

// ConvexAtKnee reports whether the splice at the knee is convex: the
// right (power-law) derivative must be at least the left (exponential-sum)
// derivative, -beta*r_L(Kt)/Kt >= srdSlope(Kt). A decreasing convex
// correlation sequence is positive definite (Pólya's criterion), so a
// continuous convex composite is always a valid correlation function; a
// concave corner at the knee generally is not.
func (c Composite) ConvexAtKnee() bool {
	if c.Knee <= 0 || len(c.Weights) == 0 {
		return true
	}
	kt := float64(c.Knee)
	lrdSlope := -c.Beta * c.L * math.Pow(kt, -c.Beta) / kt
	return lrdSlope >= c.srdSlope(kt)-1e-15
}

// EnsureConvex returns a copy whose knee splice is convex (and therefore
// positive definite). If the continuity-adjusted rate is too flat
// (lambda < beta/Knee), the knee is pushed out to the lag where the
// power-law tail equals e^(-beta); there the continuity rate is exactly
// beta/Knee, making the splice C^1. The LRD tail is preserved exactly.
// An error is returned when the required knee would be absurd (tail level
// inconsistent with beta).
func (c Composite) EnsureConvex() (Composite, error) {
	if c.ConvexAtKnee() {
		return c, nil
	}
	limit := 4 * c.Knee
	if limit < 500 {
		limit = 500
	}
	if len(c.Weights) == 1 {
		// Single exponential: closed form. Required:
		// L * Kt^-beta <= e^-beta  <=>  Kt >= (L e^beta)^(1/beta).
		kt := int(math.Ceil(math.Pow(c.L*math.Exp(c.Beta), 1/c.Beta)))
		if kt <= c.Knee {
			kt = c.Knee + 1
		}
		if kt > limit {
			return Composite{}, fmt.Errorf(
				"acf: convexity requires knee %d (beyond limit %d) — the ACF tail level %.3g is inconsistent with beta %.3g",
				kt, limit, c.L, c.Beta)
		}
		out := c
		out.Knee = kt
		out = out.Continuous()
		if !out.ConvexAtKnee() {
			// Continuity at the C^1 point gives lambda = beta/Kt exactly;
			// guard against rounding leaving it epsilon short.
			out.Rates = []float64{out.Beta / float64(out.Knee)}
		}
		return out, nil
	}
	// Multi-exponential: push the knee outward, re-anchoring L each time,
	// until the splice turns convex (the exponential slope decays
	// exponentially in Kt, the power-law slope only as 1/Kt).
	out := c
	for kt := c.Knee + 1; kt <= limit; kt++ {
		out.Knee = kt
		out = out.Continuous()
		if out.ConvexAtKnee() {
			return out, nil
		}
	}
	return Composite{}, fmt.Errorf("acf: no convex knee found up to limit %d", limit)
}

// PaperComposite returns the fit the paper reports for "Last Action Hero"
// (eq. 13): r(k) = exp(-0.00565 k) for k < 60 and 1.59468 k^-0.2 for k >= 60.
// The reported coefficients leave a small (~0.013) discontinuity at the
// knee; call Continuous() before feeding the model to a generator.
func PaperComposite() Composite {
	return Composite{
		Weights: []float64{1},
		Rates:   []float64{0.00565093},
		L:       1.59468,
		Beta:    0.2,
		Knee:    60,
	}
}

// ---------------------------------------------------------------------------
// Scaled model (paper eq. 15: GOP rescaling r(k) = r_I(k / K_I))

// Scaled stretches a base model along the lag axis by Factor, evaluating the
// base at the fractional lag k/Factor with linear interpolation. It realizes
// eq. (15): the ACF of the full I-B-P stream is the I-frame ACF rescaled by
// the GOP period.
type Scaled struct {
	Base   Model
	Factor int
}

// At returns Base(k/Factor) with linear interpolation between integer lags.
func (s Scaled) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	if s.Factor <= 1 {
		return s.Base.At(k)
	}
	pos := float64(k) / float64(s.Factor)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 {
		return s.Base.At(lo)
	}
	return s.Base.At(lo)*(1-frac) + s.Base.At(lo+1)*frac
}

// ---------------------------------------------------------------------------
// Knee detection

// detectKnee locates the lag at which an empirical ACF transitions from fast
// exponential decay to slow power-law decay. It slides a candidate knee
// across [minKnee, maxKnee], fits an exponential below and a power law at or
// above the candidate, and returns the candidate minimizing total squared
// error in correlation space. The empirical acf must include lag 0. A
// fixed power-law exponent beta > 0 keeps the knee choice consistent with
// a fixed-beta fit; beta = 0 fits the exponent too.
func detectKnee(empirical []float64, minKnee, maxKnee int, beta float64) (int, error) {
	if minKnee < 4 {
		minKnee = 4
	}
	if maxKnee >= len(empirical)-4 {
		maxKnee = len(empirical) - 5
	}
	if maxKnee < minKnee {
		return 0, errors.New("acf: ACF too short for knee detection")
	}
	best, bestErr := minKnee, math.Inf(1)
	for kt := minKnee; kt <= maxKnee; kt++ {
		e, errSRD := fitExponential(empirical, 1, kt)
		var p PowerLaw
		var errLRD error
		if beta > 0 {
			p, errLRD = fitPowerLawFixedBeta(empirical, beta, kt, len(empirical)-1)
		} else {
			p, errLRD = fitPowerLaw(empirical, kt, len(empirical)-1)
		}
		if errSRD != nil || errLRD != nil {
			continue
		}
		var sse float64
		for k := 1; k < kt; k++ {
			d := empirical[k] - e.At(k)
			sse += d * d
		}
		for k := kt; k < len(empirical); k++ {
			d := empirical[k] - p.At(k)
			sse += d * d
		}
		if sse < bestErr {
			best, bestErr = kt, sse
		}
	}
	if math.IsInf(bestErr, 1) {
		return 0, errors.New("acf: knee detection failed on all candidates")
	}
	return best, nil
}

// fitExponential fits r(k) ~ exp(-lambda k) on lags [lo, hi) by least squares
// on log r(k) against k through the origin (r(0)=1 pins the intercept).
func fitExponential(empirical []float64, lo, hi int) (Exponential, error) {
	var sxx, sxy float64
	n := 0
	for k := lo; k < hi && k < len(empirical); k++ {
		if empirical[k] <= 0 {
			continue
		}
		x := float64(k)
		y := math.Log(empirical[k])
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 || sxx == 0 {
		return Exponential{}, errors.New("acf: not enough positive lags for exponential fit")
	}
	lambda := -sxy / sxx
	if lambda <= 0 {
		return Exponential{}, errors.New("acf: exponential fit produced non-positive rate")
	}
	return Exponential{Lambda: lambda}, nil
}

// fitPowerLaw fits r(k) ~ L k^-beta on lags [lo, hi] by log-log least squares.
func fitPowerLaw(empirical []float64, lo, hi int) (PowerLaw, error) {
	var ks, rs []float64
	for k := lo; k <= hi && k < len(empirical); k++ {
		if empirical[k] > 0 {
			ks = append(ks, float64(k))
			rs = append(rs, empirical[k])
		}
	}
	slope, intercept, _, err := stats.LogLogFit(ks, rs)
	if err != nil {
		return PowerLaw{}, err
	}
	beta := -slope
	if beta <= 0 {
		return PowerLaw{}, errors.New("acf: power-law fit produced non-positive beta")
	}
	return PowerLaw{L: math.Pow(10, intercept), Beta: beta}, nil
}

// fitPowerLawFixedBeta fits only the level L of r(k) ~ L k^-beta on lags
// [lo, hi] by least squares in log space (which reduces to a mean).
func fitPowerLawFixedBeta(empirical []float64, beta float64, lo, hi int) (PowerLaw, error) {
	var sum float64
	n := 0
	for k := lo; k <= hi && k < len(empirical); k++ {
		if empirical[k] > 0 {
			sum += math.Log(empirical[k]) + beta*math.Log(float64(k))
			n++
		}
	}
	if n == 0 {
		return PowerLaw{}, errors.New("acf: no positive tail lags for fixed-beta fit")
	}
	return PowerLaw{L: math.Exp(sum / float64(n)), Beta: beta}, nil
}

// FitOptions controls FitComposite.
type FitOptions struct {
	// Knee forces the knee lag; 0 means detect automatically.
	Knee int
	// MinKnee/MaxKnee bound automatic knee detection; zero values default to
	// 10 and len(acf)/3.
	MinKnee, MaxKnee int
	// Beta forces the LRD exponent (e.g. from a Hurst estimate, Beta=2-2H);
	// 0 means fit it from the tail.
	Beta float64
	// AllowDiscontinuous skips the final continuity adjustment (eq. 12).
	// Discontinuous composites are generally not positive definite and
	// cannot be fed to the generators; this exists for fit diagnostics only.
	AllowDiscontinuous bool
}

// FitComposite fits the composite knee model to an empirical ACF
// (empirical[0] must be lag 0). It implements Step 2 of the paper: one
// exponential below the knee, a power law above it, with the power-law level
// re-anchored for continuity at the knee (eq. 12).
func FitComposite(empirical []float64, opt FitOptions) (Composite, error) {
	if len(empirical) < 16 {
		return Composite{}, errors.New("acf: ACF too short to fit composite model")
	}
	knee := opt.Knee
	if knee == 0 {
		minK, maxK := opt.MinKnee, opt.MaxKnee
		if minK == 0 {
			minK = 10
		}
		if maxK == 0 {
			maxK = len(empirical) / 3
		}
		var err error
		// Detect the knee with the same beta the final fit will use, so
		// the two stages cannot disagree about where the tail starts.
		knee, err = detectKnee(empirical, minK, maxK, opt.Beta)
		if err != nil {
			return Composite{}, err
		}
	}
	if knee <= 1 || knee >= len(empirical)-2 {
		return Composite{}, fmt.Errorf("acf: knee %d out of range", knee)
	}
	expo, err := fitExponential(empirical, 1, knee)
	if err != nil {
		return Composite{}, err
	}
	var pl PowerLaw
	if opt.Beta > 0 {
		pl, err = fitPowerLawFixedBeta(empirical, opt.Beta, knee, len(empirical)-1)
	} else {
		pl, err = fitPowerLaw(empirical, knee, len(empirical)-1)
	}
	if err != nil {
		return Composite{}, err
	}
	c := Composite{
		Weights: []float64{1},
		Rates:   []float64{expo.Lambda},
		L:       pl.L,
		Beta:    pl.Beta,
		Knee:    knee,
	}
	if !opt.AllowDiscontinuous {
		c = c.Continuous()
		// A continuous but concave corner at the knee is not positive
		// definite; restore convexity (pushing the knee out if needed) so
		// the fitted model can always drive a generator.
		c, err = c.EnsureConvex()
		if err != nil {
			return Composite{}, err
		}
	}
	if err := c.Validate(); err != nil {
		return Composite{}, err
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Attenuation compensation (Step 4, eq. 14)

// Compensate returns the background-process target ACF for Step 4 of the
// paper: given the desired foreground ACF rhat (a composite model) and the
// measured attenuation factor a in (0,1], the background must carry
// r(k) = rhat(k)/a in the LRD regime, and an exponential with rate lambda
// solving exp(-lambda*Kt) = rhat(Kt)/a in the SRD regime (eq. 14). Values
// are clamped below 1 to remain a valid correlation.
func Compensate(rhat Composite, a float64) (Composite, error) {
	if a <= 0 || a > 1 {
		return Composite{}, fmt.Errorf("acf: attenuation %v outside (0,1]", a)
	}
	target := rhat.At(rhat.Knee) / a
	if target >= 1 {
		// The compensated knee correlation saturates; fall back to a tiny
		// positive rate so the model remains valid.
		target = 1 - 1e-9
	}
	var out Composite
	if len(rhat.Weights) > 1 {
		// Multi-exponential head: preserve the two-timescale structure by
		// rescaling all rates with a common factor s <= 1 (slowing the
		// head) until the head meets the raised tail at the knee.
		kt := float64(rhat.Knee)
		valueAt := func(s float64) float64 {
			var v float64
			for i, w := range rhat.Weights {
				v += w * math.Exp(-rhat.Rates[i]*s*kt)
			}
			return v
		}
		lo, hi := 1e-6, 1.0
		for i := 0; i < 200; i++ {
			mid := (lo + hi) / 2
			if valueAt(mid) > target {
				lo = mid
			} else {
				hi = mid
			}
		}
		s := (lo + hi) / 2
		rates := make([]float64, len(rhat.Rates))
		for i, r := range rhat.Rates {
			rates[i] = r * s
		}
		out = Composite{
			Weights: append([]float64(nil), rhat.Weights...),
			Rates:   rates,
			L:       rhat.L / a,
			Beta:    rhat.Beta,
			Knee:    rhat.Knee,
		}
	} else {
		lambda := -math.Log(target) / float64(rhat.Knee)
		out = Composite{
			Weights: []float64{1},
			Rates:   []float64{lambda},
			L:       rhat.L / a,
			Beta:    rhat.Beta,
			Knee:    rhat.Knee,
		}
	}
	// Raising the tail by 1/a flattens the continuity rate and can tip a
	// marginally convex knee into concavity; restore convexity so the
	// compensated model remains a valid correlation function.
	out, err := out.EnsureConvex()
	if err != nil {
		return Composite{}, err
	}
	if err := out.Validate(); err != nil {
		return Composite{}, err
	}
	return out, nil
}

// Clamped wraps a model and clamps every lag's value into [-1+eps, 1] and
// additionally caps values at lag >= 1 strictly below 1, which keeps
// Durbin-Levinson recursions numerically safe.
type Clamped struct {
	Base Model
}

// At returns the clamped correlation.
func (c Clamped) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	v := c.Base.At(k)
	const lim = 1 - 1e-9
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}
