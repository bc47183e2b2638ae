// Package farima implements the fractional ARIMA(0,d,0) process of Hosking
// (1981), the asymptotically self-similar model that Garrett & Willinger used
// to synthesize VBR video traffic and that this paper's unified approach
// extends. It provides the exact autocorrelation of FARIMA(0,d,0) (as an
// acf.Model) and the full FARIMA(1,d,1) model with its fit; exact generation
// runs through a hosking plan built on either.
package farima

import (
	"errors"
	"math"
)

// ACF is the exact autocorrelation of FARIMA(0,d,0):
//
//	rho(k) = Gamma(k+d) Gamma(1-d) / (Gamma(k-d+1) Gamma(d))
//
// computed by the stable recurrence rho(k) = rho(k-1) (k-1+d)/(k-d).
// The Hurst parameter is H = d + 1/2, so LRD requires d in (0, 1/2).
type ACF struct {
	D float64
}

// At returns rho(k). It evaluates the recurrence each call for small k and
// switches to the asymptotic form for very large lags where the recurrence
// would be slow; both agree to high accuracy in the crossover region.
func (a ACF) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	d := a.D
	if d == 0 {
		return 0
	}
	if k <= 4096 {
		rho := 1.0
		for j := 1; j <= k; j++ {
			rho *= (float64(j) - 1 + d) / (float64(j) - d)
		}
		return rho
	}
	// Asymptotics: rho(k) ~ (Gamma(1-d)/Gamma(d)) k^(2d-1).
	lg1, _ := math.Lgamma(1 - d)
	lg2, _ := math.Lgamma(d)
	return math.Exp(lg1-lg2) * math.Pow(float64(k), 2*d-1)
}

// Validate checks that D lies in the stationary-invertible LRD range.
func (a ACF) Validate() error {
	if a.D <= -0.5 || a.D >= 0.5 {
		return errors.New("farima: d must lie in (-1/2, 1/2)")
	}
	return nil
}
