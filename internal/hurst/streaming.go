package hurst

import (
	"math"
	"math/bits"

	"vbrsim/internal/stats"
)

// aggVarLevels bounds the dyadic scale ladder: level k aggregates blocks of
// m = 2^k frames, so 28 levels cover block sizes up to 2^27 ≈ 134M frames —
// far beyond any session horizon the server admits. The zero AggVar keeps
// all 28 (1 120 B). NewAggVar keeps only the levels its fit can read, since
// a level above the fit would be written and never read: a statmon monitor
// fits scales up to m = 1024, so it keeps 11 levels (440 B).
const aggVarLevels = 28

// avLevel holds the running block-mean statistics for one dyadic scale.
// Block means are centered on the first mean observed at the level (off) so
// sum/sum2 stay well-conditioned for marginals with large means (the served
// lognormal frame sizes sit around e^9.6 ≈ 15k bytes).
type avLevel struct {
	off  float64 // centering offset: first completed block mean
	sum  float64 // Σ (mean - off)
	sum2 float64 // Σ (mean - off)^2
	n    float64 // completed blocks at this scale
	pend float64 // a completed mean awaiting its sibling (see AggVar.pushed)
}

// AggVar is a streaming form of the variance-time estimator: it maintains
// var(X^(m)) over the dyadic grid m = 1, 2, 4, ... with an O(1) amortized
// carry cascade per pushed frame (a frame completes the level-0 block, which
// may complete a level-1 block, and so on — two block folds per frame on
// average, like incrementing a binary counter). Estimate then fits the same
// log10 var(X^(m)) vs log10 m regression as VarianceTime and maps the slope
// through H = 1 - beta/2. The zero value is ready to use and allocates its
// full ladder on the first Push; NewAggVar allocates a bounded one up front.
// Push never allocates after that.
type AggVar struct {
	lev []avLevel
	// pushed counts frames. The cascade is that counter's increment: bit k
	// is set exactly when level k holds a pending mean awaiting its sibling.
	pushed uint64
}

// NewAggVar returns an AggVar whose ladder stops at the largest dyadic
// scale m <= maxM (maxM <= 0: the full ladder). Every level it keeps
// evolves exactly as in the full ladder, so Estimate with a scale cap of
// at most maxM reads the same values from either.
func NewAggVar(maxM int) AggVar {
	levels := aggVarLevels
	if maxM > 0 {
		levels = min(bits.Len(uint(maxM)), aggVarLevels)
	}
	return AggVar{lev: make([]avLevel, levels)}
}

// Push feeds one frame into the cascade.
func (a *AggVar) Push(v float64) {
	if a.lev == nil {
		a.lev = make([]avLevel, aggVarLevels)
	}
	c := a.pushed
	a.pushed++
	for k := range a.lev {
		l := &a.lev[k]
		// v is a completed block mean at scale m = 2^k: record it.
		if l.n == 0 {
			l.off = v
		}
		d := v - l.off
		l.sum += d
		l.sum2 += d * d
		l.n++
		if k+1 >= len(a.lev) {
			return
		}
		if c&1 == 0 {
			l.pend = v
			return
		}
		// Sibling complete: fold the pair into a scale-2m block mean and
		// carry upward.
		v = (l.pend + v) / 2
		c >>= 1
	}
}

// VarianceAt returns the biased variance of the aggregated series at scale
// m = 2^level and the number of completed blocks behind it. It returns
// (0, n) when fewer than two blocks have completed.
func (a *AggVar) VarianceAt(level int) (v float64, blocks float64) {
	if level < 0 || level >= len(a.lev) {
		return 0, 0
	}
	l := &a.lev[level]
	if l.n < 2 {
		return 0, l.n
	}
	mean := l.sum / l.n
	v = l.sum2/l.n - mean*mean
	if v < 0 {
		v = 0 // rounding guard; exact zero also rejects the point below
	}
	return v, l.n
}

// Estimate fits the variance-time regression over dyadic scales m with
// minM <= m <= maxM (maxM <= 0 means unbounded) using only scales backed by
// at least minBlocks completed blocks. It needs at least three usable scale
// points, otherwise ErrShortSeries. The returned Estimate mirrors
// VarianceTime: X/Y are the log10 plot points and H = 1 + slope/2.
//
// minM exists for the same reason VarianceTimeOptions.MinM does — short-range
// correlation contaminates small scales — and maxM matters for sampled taps:
// a monitor that observes every k-th chunk of c frames sees a series that is
// contiguous only within chunks, so scales above c mix frames across gaps and
// should be excluded from the fit. Scales above the ladder's top level
// (NewAggVar's maxM) do not enter the fit.
//
// minBlocks should be at least ~32: the log of a variance estimated from n
// blocks is biased low by O(1/n) (log of a χ²-like average), and on the
// dyadic grid the few-block top scales carry maximal regression leverage, so
// admitting 8-block scales visibly steepens the slope (H biased low).
func (a *AggVar) Estimate(minM, maxM, minBlocks int) (Estimate, error) {
	if minM < 1 {
		minM = 1
	}
	if minBlocks < 2 {
		minBlocks = 2
	}
	var logM, logVar []float64
	for k := range a.lev {
		m := 1 << uint(k)
		if m < minM {
			continue
		}
		if maxM > 0 && m > maxM {
			break
		}
		v, n := a.VarianceAt(k)
		if n < float64(minBlocks) || v <= 0 {
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
	return Estimate{
		H:         1 + slope/2,
		Slope:     slope,
		Intercept: intercept,
		R2:        r2,
		X:         logM,
		Y:         logVar,
	}, nil
}
