// Package hurst implements the Hurst-parameter estimators used in Step 1 of
// the paper's modeling pipeline: the variance-time plot and R/S (pox)
// analysis, plus the local Whittle estimator for cross-checking. The two
// paper estimators return the raw plot points alongside the least-squares
// fit so the corresponding paper figures (Figs. 3 and 4) can be regenerated
// exactly.
package hurst

import (
	"errors"
	"math"

	"vbrsim/internal/stats"
)

// Estimate is the result of one Hurst estimation method.
type Estimate struct {
	H         float64   // estimated Hurst parameter
	Slope     float64   // fitted slope in the method's log-log plane
	Intercept float64   // fitted intercept
	R2        float64   // goodness of fit
	X, Y      []float64 // raw plot points (already log10-transformed)
}

// ErrShortSeries is returned when the series is too short for the estimator.
var ErrShortSeries = errors.New("hurst: series too short")

// VarianceTimeOptions controls the variance-time estimator.
type VarianceTimeOptions struct {
	// MinM is the smallest aggregation level used in the fit. The paper
	// ignores small m (short-term correlations bias the slope); default 100.
	MinM int
	// MaxM is the largest aggregation level; default len(x)/10 so every
	// aggregated series keeps at least 10 blocks.
	MaxM int
	// PointsPerDecade controls the log-spaced grid of m values; default 10.
	PointsPerDecade int
}

// VarianceTime estimates H from the decay of var(X^(m)) with m:
// for self-similar X, var(X^(m)) ~ m^-beta and H = 1 - beta/2.
func VarianceTime(x []float64, opt VarianceTimeOptions) (Estimate, error) {
	if opt.MinM <= 0 {
		// The fit needs at least a decade of aggregation levels between
		// MinM and MaxM = n/10; shrink MinM on short series (at the cost of
		// more short-range contamination) so the range stays usable.
		opt.MinM = len(x) / 100
		if opt.MinM > 100 {
			opt.MinM = 100
		}
		if opt.MinM < 16 {
			opt.MinM = 16
		}
	}
	if opt.MaxM <= 0 {
		opt.MaxM = len(x) / 10
	}
	if opt.PointsPerDecade <= 0 {
		opt.PointsPerDecade = 10
	}
	if opt.MaxM <= opt.MinM || len(x) < 10*opt.MinM {
		return Estimate{}, ErrShortSeries
	}
	var logM, logVar []float64
	step := math.Pow(10, 1/float64(opt.PointsPerDecade))
	lastM := 0
	for mf := float64(opt.MinM); mf <= float64(opt.MaxM); mf *= step {
		m := int(math.Round(mf))
		if m == lastM {
			continue
		}
		lastM = m
		agg := stats.Aggregate(x, m)
		if len(agg) < 5 {
			break
		}
		v := stats.Variance(agg)
		if v <= 0 {
			continue
		}
		logM = append(logM, math.Log10(float64(m)))
		logVar = append(logVar, math.Log10(v))
	}
	if len(logM) < 3 {
		return Estimate{}, ErrShortSeries
	}
	slope, intercept, r2, err := stats.LinearFit(logM, logVar)
	if err != nil {
		return Estimate{}, err
	}
	beta := -slope
	return Estimate{
		H:         1 - beta/2,
		Slope:     slope,
		Intercept: intercept,
		R2:        r2,
		X:         logM,
		Y:         logVar,
	}, nil
}

// RSOptions controls the R/S estimator.
type RSOptions struct {
	// Blocks is the number K of non-overlapping starting points per lag
	// value n; default 10.
	Blocks int
	// MinN is the smallest window size used in the fit; default 16 (small
	// windows show transient bias).
	MinN int
	// MaxN defaults to len(x)/2.
	MaxN int
	// PointsPerDecade controls the log-spaced grid of n values; default 10.
	PointsPerDecade int
}

// RS estimates H by rescaled-adjusted-range (pox) analysis:
// E[R(n)/S(n)] ~ c n^H.
func RS(x []float64, opt RSOptions) (Estimate, error) {
	if opt.Blocks <= 0 {
		opt.Blocks = 10
	}
	if opt.MinN <= 0 {
		opt.MinN = 16
	}
	if opt.MaxN <= 0 {
		opt.MaxN = len(x) / 2
	}
	if opt.PointsPerDecade <= 0 {
		opt.PointsPerDecade = 10
	}
	if len(x) < 4*opt.MinN {
		return Estimate{}, ErrShortSeries
	}
	var logN, logRS []float64
	step := math.Pow(10, 1/float64(opt.PointsPerDecade))
	lastN := 0
	for nf := float64(opt.MinN); nf <= float64(opt.MaxN); nf *= step {
		n := int(math.Round(nf))
		if n == lastN || n < 2 {
			continue
		}
		lastN = n
		// K starting points t_i = 1, N/K+1, ... with (t_i - 1) + n <= N.
		for b := 0; b < opt.Blocks; b++ {
			start := b * len(x) / opt.Blocks
			if start+n > len(x) {
				break
			}
			rs, ok := rescaledRange(x[start : start+n])
			if !ok {
				continue
			}
			logN = append(logN, math.Log10(float64(n)))
			logRS = append(logRS, math.Log10(rs))
		}
	}
	if len(logN) < 5 {
		return Estimate{}, ErrShortSeries
	}
	slope, intercept, r2, err := stats.LinearFit(logN, logRS)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		H:         slope,
		Slope:     slope,
		Intercept: intercept,
		R2:        r2,
		X:         logN,
		Y:         logRS,
	}, nil
}

// rescaledRange computes R(n)/S(n) of eq. (8) for one window.
func rescaledRange(x []float64) (float64, bool) {
	n := len(x)
	mean, variance := stats.MeanVar(x)
	s := math.Sqrt(variance)
	if s == 0 {
		return 0, false
	}
	// W_k = (X_1 + ... + X_k) - k*mean; R = max(0, W...) - min(0, W...).
	var w, maxW, minW float64
	for _, v := range x {
		w += v - mean
		if w > maxW {
			maxW = w
		}
		if w < minW {
			minW = w
		}
	}
	r := maxW - minW
	if r <= 0 {
		return 0, false
	}
	_ = n
	return r / s, true
}

// Combined runs the paper's two estimators (variance-time and R/S) with
// default options and returns their average, mirroring the paper's decision
// to "combine the results of the above two approaches".
func Combined(x []float64) (h float64, vt, rs Estimate, err error) {
	vt, err = VarianceTime(x, VarianceTimeOptions{})
	if err != nil {
		return 0, vt, rs, err
	}
	rs, err = RS(x, RSOptions{})
	if err != nil {
		return 0, vt, rs, err
	}
	return (vt.H + rs.H) / 2, vt, rs, nil
}
