package modelspec

import (
	"context"
	"fmt"

	"vbrsim/internal/dist"
	"vbrsim/internal/rng"
	"vbrsim/internal/tes"
)

// EngineTES is the TES (Transform-Expand-Sample) generator: a modulo-1
// uniform background stitched and mapped through the spec marginal.
const EngineTES = "tes"

// tesEngine is O(1) per frame with tiny state: the cheapest class.
var tesEngine = engine{
	name:      EngineTES,
	cost:      1,
	hasConfig: func(s *Spec) bool { return s.TES != nil },
	validate: func(s *Spec) error {
		if s.TES == nil {
			return fmt.Errorf("modelspec: engine %q needs a tes config", EngineTES)
		}
		if s.Marginal == nil {
			return fmt.Errorf("modelspec: engine %q needs a marginal", EngineTES)
		}
		target, err := s.Marginal.Distribution()
		if err != nil {
			return err
		}
		if err := s.TES.config(target).Validate(); err != nil {
			return err
		}
		if !s.ACF.IsZero() {
			return fmt.Errorf("modelspec: engine %q takes its correlation from the tes config; acf must be empty", EngineTES)
		}
		return nil
	},
	open: func(_ context.Context, s *Spec, _ float64) (*Stream, error) {
		target, err := s.Marginal.Distribution()
		if err != nil {
			return nil, err
		}
		g, err := tes.New(s.TES.config(target), rng.New(s.Seed))
		if err != nil {
			return nil, err
		}
		src := &tesSource{gen: g}
		src.st = Stream{src: src, seed: s.Seed}
		return &src.st, nil
	},
}

// TESSpec serializes the "tes" engine's configuration. The foreground
// marginal comes from the enclosing Spec.Marginal.
type TESSpec struct {
	// Alpha is the innovation width in (0,1]: small alpha means strong
	// positive background correlation.
	Alpha float64 `json:"alpha"`
	// Zeta is the stitching parameter in (0,1]; 0 means 0.5 (symmetric).
	Zeta float64 `json:"zeta,omitempty"`
	// Minus selects the TES- variant (alternating reflection).
	Minus bool `json:"minus,omitempty"`
}

// config assembles the tes.Config for the given foreground marginal.
func (t *TESSpec) config(target dist.Distribution) tes.Config {
	zeta := t.Zeta
	if zeta == 0 {
		zeta = 0.5
	}
	return tes.Config{Alpha: t.Alpha, Zeta: zeta, Marginal: target, Minus: t.Minus}
}

type tesSource struct {
	st  Stream
	gen *tes.Generator
}

func (s *tesSource) Fill(out []float64) {
	for i := range out {
		out[i] = s.gen.Next()
	}
}

// SeekCtx rewinds to the seed on a backward seek and replays forward. The
// replay advances only the background: the foreground map is stateless.
func (s *tesSource) SeekCtx(ctx context.Context, pos int) error {
	if pos < s.gen.Pos() {
		s.gen.Reseed(s.st.seed)
	}
	return replay(ctx, pos-s.gen.Pos(), func() { s.gen.NextBackground() })
}

func (s *tesSource) Reseed(seed uint64)          { s.gen.Reseed(seed) }
func (s *tesSource) Pos() int                    { return s.gen.Pos() }
func (s *tesSource) Close()                      {}
func (s *tesSource) MeanRate() float64           { return s.gen.Config().Marginal.Mean() }
func (s *tesSource) Marginal() dist.Distribution { return s.gen.Config().Marginal }
