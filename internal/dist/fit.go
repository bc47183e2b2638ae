// Parametric marginal fitting. The paper notes (Section 3.1) that the
// foreground marginal F_Y "can be obtained either by modeling an empirical
// distribution using parametric mathematical functions or ... by inverting
// the empirical distribution directly". This file supplies the parametric
// route used by Garrett & Willinger: a Gamma body with a Pareto tail, the
// body fitted by moment matching on the truncated sample and the tail index
// by the Hill estimator.
package dist

import (
	"errors"
	"math"
	"sort"
)

// HillTailIndex estimates the Pareto tail index alpha from the largest k
// order statistics of the sample (the Hill estimator):
//
//	alpha_hat = k / sum_{i=1..k} log(X_(n-i+1) / X_(n-k)).
//
// It returns an error when fewer than k+1 positive observations exist.
func HillTailIndex(sample []float64, k int) (float64, error) {
	if k < 2 {
		return 0, errors.New("dist: Hill estimator needs k >= 2")
	}
	s := make([]float64, 0, len(sample))
	for _, v := range sample {
		if v > 0 {
			s = append(s, v)
		}
	}
	if len(s) <= k {
		return 0, errors.New("dist: not enough positive observations for Hill estimator")
	}
	sort.Float64s(s)
	threshold := s[len(s)-1-k]
	if threshold <= 0 {
		return 0, errors.New("dist: non-positive Hill threshold")
	}
	var sum float64
	for i := len(s) - k; i < len(s); i++ {
		sum += math.Log(s[i] / threshold)
	}
	if sum <= 0 {
		return 0, errors.New("dist: degenerate Hill sum")
	}
	return float64(k) / sum, nil
}

// FitGammaOptions controls FitGammaPareto.
type FitGammaOptions struct {
	// TailFraction is the upper fraction of the sample treated as the
	// Pareto tail; default 0.02 (the body is fitted on the rest).
	TailFraction float64
	// HillFraction is the fraction of the sample used by the Hill
	// estimator for the tail index; default TailFraction/4, which keeps
	// the Hill order statistics safely inside the tail regime even when
	// the true tail mass is smaller than TailFraction.
	HillFraction float64
}

// FitGammaPareto fits the hybrid Gamma/Pareto marginal of Garrett &
// Willinger to a sample: the Gamma body by moment matching below the cut
// (the (1-TailFraction)-quantile) and the Pareto tail index by the Hill
// estimator above it.
func FitGammaPareto(sample []float64, opt FitGammaOptions) (*GammaPareto, error) {
	if len(sample) < 100 {
		return nil, errors.New("dist: need at least 100 observations to fit Gamma/Pareto")
	}
	if opt.TailFraction <= 0 || opt.TailFraction >= 0.5 {
		opt.TailFraction = 0.02
	}
	if opt.HillFraction <= 0 || opt.HillFraction >= 0.5 {
		opt.HillFraction = opt.TailFraction / 4
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	cutIdx := int(float64(len(s)) * (1 - opt.TailFraction))
	if cutIdx >= len(s) {
		cutIdx = len(s) - 1
	}
	cut := s[cutIdx]
	if cut <= 0 {
		return nil, errors.New("dist: non-positive tail cut")
	}

	// Fit the Gamma body by maximum likelihood on the sub-cut sample.
	// MLE uses the log-moment statistic s = ln(mean) - mean(ln x), which —
	// unlike variance matching — is insensitive to the heavy tail (the
	// Pareto regime can have infinite variance). Truncation at the
	// (1-TailFraction) quantile biases the fit by only a few percent.
	var sum, sumLog float64
	nBody := 0
	for _, v := range s[:cutIdx] {
		if v > 0 {
			sum += v
			sumLog += math.Log(v)
			nBody++
		}
	}
	if nBody < 50 {
		return nil, errors.New("dist: too few positive body observations")
	}
	mean := sum / float64(nBody)
	sStat := math.Log(mean) - sumLog/float64(nBody)
	if sStat <= 0 {
		return nil, errors.New("dist: degenerate log-moment statistic")
	}
	// Minka's closed-form approximation to the Gamma MLE shape.
	shape := (3 - sStat + math.Sqrt((sStat-3)*(sStat-3)+24*sStat)) / (12 * sStat)
	if shape <= 0 || math.IsNaN(shape) {
		return nil, errors.New("dist: Gamma shape fit failed")
	}
	scale := mean / shape

	kHill := int(float64(len(s)) * opt.HillFraction)
	if kHill < 10 {
		kHill = 10
	}
	alpha, err := HillTailIndex(s, kHill)
	if err != nil {
		return nil, err
	}
	return NewGammaPareto(Gamma{Shape: shape, Scale: scale}, alpha, cut)
}
