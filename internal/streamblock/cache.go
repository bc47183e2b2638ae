package streamblock

import (
	"vbrsim/internal/acf"
	"vbrsim/internal/hosking"
)

// engineKey is the key EngineFor memoizes an engine under on its truncation.
type engineKey struct{ cfg Config }

// EngineFor returns the engine for (trunc, cfg), building it on first use
// and memoizing it on the truncation itself (hosking.Truncated.Derived).
// Served truncations are shared through the hosking plan cache (offline
// ones are memoized on their cached plan), so every caller of one
// truncation shares one engine — and the engine is released with the
// truncation's cache entry, not pinned by a global map. The
// model must be the ACF the truncation was derived from, at every lag below
// the engine's block total: a model that agrees with another only over the
// plan's lags gets the other's engine here, so callers that cannot rule that
// out build with NewEngine.
func EngineFor(model acf.Model, trunc *hosking.Truncated, cfg Config) (*Engine, error) {
	v, err := trunc.Derived(engineKey{cfg}, func() (any, error) {
		return NewEngine(model, trunc, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Engine), nil
}
