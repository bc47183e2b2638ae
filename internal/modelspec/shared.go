package modelspec

import (
	"context"
	"encoding/binary"
	"math"
	"sync"

	"vbrsim/internal/acf"
	"vbrsim/internal/core"
	"vbrsim/internal/hosking"
	"vbrsim/internal/streamblock"
	"vbrsim/internal/transform"
)

// gaussian is the immutable state every stream of one Gaussian-engine spec
// (truncated or block) shares: the truncation, the marginal transform and
// its mean, and for the block engine the Davies-Harte engine and the
// transform LUT. It is built once per (spec, truncation) and memoized on the
// truncation (hosking.Truncated.Derived), so opening another session of a
// spec costs only its per-seed generator or arena, and the whole value is
// released with the truncation when the plan cache evicts or purges it.
type gaussian struct {
	trunc *hosking.Truncated
	tr    transform.T
	mean  float64             // stationary foreground mean (bytes per frame)
	eng   *streamblock.Engine // block engine only
	lut   *transform.LUT      // block engine only

	// The attenuated implied ACF is the statmon reference; it costs a
	// Simpson integral plus an O(p) recursion per lag, so it is computed on
	// first request and extended only when a longer one is asked for.
	refMu   sync.Mutex
	atten   float64
	implied []float64

	// memo is Stream.Memo's one slot: a value a caller derives from the
	// spec (the server's statmon reference), kept with this state so it
	// is built once per spec and released with the truncation.
	memoMu  sync.Mutex
	memoKey any
	memoVal any
}

// gaussianKey identifies a spec's shared state on its truncation: every
// field the state depends on, bit-exact. The ACF is part of the key even
// though the truncation already pins the plan's lags, because the block
// engine evaluates the model past the plan length.
type gaussianKey string

// sharedKey encodes the engine, ACF and marginal of s as a gaussianKey.
func (s *Spec) sharedKey() gaussianKey {
	var b []byte
	str := func(v string) {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	f64 := func(vs ...float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	slice := func(vs []float64) {
		b = binary.AppendUvarint(b, uint64(len(vs)))
		f64(vs...)
	}
	a := s.ACF
	str(s.Engine)
	str(a.Kind)
	slice(a.Weights)
	slice(a.Rates)
	b = binary.AppendVarint(b, int64(a.Knee))
	f64(a.L, a.Beta, a.D, a.Phi, a.Theta, a.H)
	if m := s.Marginal; m != nil {
		str(m.Kind)
		f64(m.Mu, m.Sigma, m.Shape, m.Scale)
		slice(m.Sample)
	}
	return gaussianKey(b)
}

// validateGaussian checks a Gaussian-background spec: a valid ACF family
// and, when present, a valid marginal.
func validateGaussian(s *Spec) error {
	if _, err := s.ACF.Model(); err != nil {
		return err
	}
	if s.Marginal != nil {
		if _, err := s.Marginal.Distribution(); err != nil {
			return err
		}
	}
	return nil
}

// gaussianState acquires the spec's truncation (cached, cancellable) and
// its shared state on that truncation. build, when set, adds engine-
// specific state the first time the shared state is built.
func (s *Spec) gaussianState(ctx context.Context, tol float64, build func(*gaussian, acf.Model) error) (*gaussian, error) {
	model, err := s.ACF.Model()
	if err != nil {
		return nil, err
	}
	trunc, err := core.TruncatedPlanForCtx(ctx, model, 0, tol)
	if err != nil {
		return nil, err
	}
	v, err := trunc.Derived(s.sharedKey(), func() (any, error) {
		target, err := s.target()
		if err != nil {
			return nil, err
		}
		g := &gaussian{trunc: trunc, tr: transform.New(target), mean: target.Mean()}
		if build != nil {
			if err := build(g, model); err != nil {
				return nil, err
			}
		}
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*gaussian), nil
}

// impliedACF returns the attenuated implied ACF at lags 0..lags-1 (lags >
// 0). The slice is shared by every stream of the spec and must not be
// modified. Longer requests recompute rather than extend in place, so slices
// already handed out never change; the AR extension is prefix-consistent,
// so every length agrees with a fresh computation bit for bit.
func (g *gaussian) impliedACF(lags int) []float64 {
	g.refMu.Lock()
	defer g.refMu.Unlock()
	if len(g.implied) < lags {
		if g.implied == nil {
			g.atten = g.tr.Attenuation()
		}
		rho := g.trunc.ImpliedACF(lags)
		for k := 1; k < len(rho); k++ {
			rho[k] *= g.atten
		}
		g.implied = rho
	}
	return g.implied[:lags:lags]
}

// memo returns the value in the memo slot when it was built under key, and
// otherwise builds it and takes the slot. build runs outside the lock, so
// concurrent first requests may each build; the first to finish wins and
// the others return its value.
func (g *gaussian) memo(key any, build func() any) any {
	g.memoMu.Lock()
	k, v := g.memoKey, g.memoVal
	g.memoMu.Unlock()
	if v != nil && k == key {
		return v
	}
	v = build()
	g.memoMu.Lock()
	defer g.memoMu.Unlock()
	if g.memoVal != nil && g.memoKey == key {
		return g.memoVal
	}
	g.memoKey, g.memoVal = key, v
	return v
}
