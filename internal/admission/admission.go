// Package admission implements connection admission control (CAC) for VBR
// video multiplexers — the network design and management task the paper's
// introduction motivates ("effective design and performance analysis depend
// on accurate modeling of the various traffic types").
//
// The controller combines the library's two quantitative tools:
//
//   - the Norros effective-bandwidth closed form for homogeneous
//     fractional-Brownian sources (self-similarity is preserved under
//     superposition: N sources of (m, v, H) aggregate to (Nm, Nv, H)), and
//   - optional importance-sampling verification of the loss target for the
//     admitted load, using the fitted unified model.
//
// The LRD-aware admission boundary is markedly more conservative than a
// Markovian one at large buffers — the operational consequence of Fig. 17.
package admission

import (
	"errors"

	"vbrsim/internal/norros"
)

// Link describes the multiplexer being provisioned.
type Link struct {
	// Capacity is the service rate in the same per-slot units as the
	// source mean rate.
	Capacity float64
	// Buffer is the queue threshold whose overflow probability is bounded.
	Buffer float64
	// LossTarget is the acceptable P(Q > Buffer), in (0, 1).
	LossTarget float64
}

// Validate checks link parameters.
func (l Link) Validate() error {
	if l.Capacity <= 0 {
		return errors.New("admission: non-positive capacity")
	}
	if l.Buffer <= 0 {
		return errors.New("admission: non-positive buffer")
	}
	if l.LossTarget <= 0 || l.LossTarget >= 1 {
		return errors.New("admission: loss target must lie in (0,1)")
	}
	return nil
}

// RequiredCapacity returns the capacity needed to carry n homogeneous
// sources with the given per-source fBm parameters at the link's buffer and
// loss target (Norros effective bandwidth of the aggregate).
func RequiredCapacity(src norros.Params, n int, l Link) (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, errors.New("admission: non-positive source count")
	}
	agg := norros.Params{
		MeanRate: float64(n) * src.MeanRate,
		VarCoeff: float64(n) * src.VarCoeff,
		H:        src.H,
	}
	return agg.EffectiveBandwidth(l.Buffer, l.LossTarget)
}

// Admissible reports whether n homogeneous sources fit on the link.
func Admissible(src norros.Params, n int, l Link) (bool, error) {
	c, err := RequiredCapacity(src, n, l)
	if err != nil {
		return false, err
	}
	return c <= l.Capacity, nil
}

// MaxSources returns the largest number of homogeneous sources the link
// admits, by binary search over the (monotone) effective-bandwidth
// requirement. It returns 0 when even one source does not fit.
func MaxSources(src norros.Params, l Link) (int, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if err := src.Validate(); err != nil {
		return 0, err
	}
	// Upper bound: mean-rate packing (the requirement always exceeds Nm).
	hi := int(l.Capacity/src.MeanRate) + 1
	lo := 0
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := Admissible(src, mid, l)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// MarkovianMaxSources is the SRD strawman: it applies the classical
// effective-bandwidth formula for exponentially-decaying (H = 1/2) traffic
// with the same mean and variance coefficient, i.e. the admission decision
// a Markovian model would make. Comparing it with MaxSources quantifies how
// much LRD-aware admission must back off — the CAC face of Fig. 17.
func MarkovianMaxSources(src norros.Params, l Link) (int, error) {
	srd := src
	srd.H = 0.5 + 1e-9 // the H->1/2 limit of the Norros formula
	return MaxSources(srd, l)
}
