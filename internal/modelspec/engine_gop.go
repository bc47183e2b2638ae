package modelspec

import (
	"context"
	"fmt"

	"vbrsim/internal/dist"
	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/trace"
)

// EngineGOP is the §3.3 interframe scene/GOP simulator promoted to a
// first-class backend: I/P/B frame sizes from heavy-tailed Pareto scenes
// with Gamma activity and AR(1) modulation. It generates its own
// correlation structure and long-tailed marginal, so the spec carries a
// GOPSpec instead of an ACF and marginal.
const EngineGOP = "gop"

// gopEngine is O(1) per frame with tiny state.
var gopEngine = engine{
	name:        EngineGOP,
	cost:        2,
	ownMarginal: true,
	hasConfig:   func(s *Spec) bool { return s.GOP != nil },
	validate: func(s *Spec) error {
		if s.GOP == nil {
			return fmt.Errorf("modelspec: engine %q needs a gop config", EngineGOP)
		}
		if err := s.GOP.Validate(); err != nil {
			return err
		}
		if !s.ACF.IsZero() {
			return fmt.Errorf("modelspec: engine %q generates its own correlation structure; acf must be empty", EngineGOP)
		}
		if s.Marginal != nil {
			return fmt.Errorf("modelspec: engine %q generates its own marginal; drop the marginal", EngineGOP)
		}
		return nil
	},
	open: func(_ context.Context, s *Spec, _ float64) (*Stream, error) {
		cfg, err := s.GOP.Config(s.Seed)
		if err != nil {
			return nil, err
		}
		g, err := mpegtrace.NewGenerator(cfg)
		if err != nil {
			return nil, err
		}
		src := &gopSource{gen: g}
		src.st = Stream{src: src, seed: s.Seed}
		return &src.st, nil
	},
}

// GOPSpec serializes the "gop" engine's configuration — the parameters of
// mpegtrace.Config minus trace length and seed (streams are unbounded and
// the seed lives on the Spec). Zero fields take the mpegtrace defaults,
// matching that package's conventions; the zero GOPSpec is the paper-scale
// encoder (H = 0.9, IBBPBBPBBPBB).
type GOPSpec struct {
	// Pattern is the group-of-pictures frame-type pattern, e.g.
	// "IBBPBBPBBPBB" (the default).
	Pattern string `json:"pattern,omitempty"`
	// SceneAlpha is the Pareto tail index of scene durations in (1,2);
	// H = (3-alpha)/2.
	SceneAlpha float64 `json:"scene_alpha,omitempty"`
	// SceneMinFrames is the minimum scene length in frames.
	SceneMinFrames float64 `json:"scene_min_frames,omitempty"`
	// ActivityShape/ActivityScale parameterize the Gamma per-scene activity.
	ActivityShape float64 `json:"activity_shape,omitempty"`
	ActivityScale float64 `json:"activity_scale,omitempty"`
	// ModPhi/ModSigma parameterize the within-scene AR(1) log-modulation.
	ModPhi   float64 `json:"mod_phi,omitempty"`
	ModSigma float64 `json:"mod_sigma,omitempty"`
	// IScale, PScale, BScale are the frame-type size multipliers.
	IScale float64 `json:"i_scale,omitempty"`
	PScale float64 `json:"p_scale,omitempty"`
	BScale float64 `json:"b_scale,omitempty"`
	// FrameNoiseSigma is the per-frame lognormal noise sigma.
	FrameNoiseSigma float64 `json:"frame_noise_sigma,omitempty"`
}

// Config converts the spec to an mpegtrace configuration (Frames left zero:
// streams are unbounded).
func (g *GOPSpec) Config(seed uint64) (mpegtrace.Config, error) {
	cfg := mpegtrace.Config{
		SceneAlpha:      g.SceneAlpha,
		SceneMinFrames:  g.SceneMinFrames,
		ActivityShape:   g.ActivityShape,
		ActivityScale:   g.ActivityScale,
		ModPhi:          g.ModPhi,
		ModSigma:        g.ModSigma,
		IScale:          g.IScale,
		PScale:          g.PScale,
		BScale:          g.BScale,
		FrameNoiseSigma: g.FrameNoiseSigma,
		Seed:            seed,
	}
	if g.Pattern != "" {
		gop := make([]trace.FrameType, len(g.Pattern))
		for i, c := range g.Pattern {
			ft, err := trace.ParseFrameType(string(c))
			if err != nil {
				return cfg, fmt.Errorf("modelspec: gop pattern: %w", err)
			}
			gop[i] = ft
		}
		cfg.GOP = gop
	}
	return cfg, nil
}

// Validate checks the gop configuration by materializing it.
func (g *GOPSpec) Validate() error {
	cfg, err := g.Config(0)
	if err != nil {
		return err
	}
	cfg.Frames = 1 // streams are unbounded; satisfy the finite-trace check
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("modelspec: %w", err)
	}
	return nil
}

type gopSource struct {
	st  Stream
	gen *mpegtrace.Generator
}

func (s *gopSource) Fill(out []float64) {
	for i := range out {
		out[i], _ = s.gen.Next()
	}
}

// SeekCtx rewinds to the seed on a backward seek and replays forward.
func (s *gopSource) SeekCtx(ctx context.Context, pos int) error {
	if pos < s.gen.Pos() {
		s.gen.Reseed(s.st.seed)
	}
	return replay(ctx, pos-s.gen.Pos(), func() { s.gen.Next() })
}

func (s *gopSource) Reseed(seed uint64) { s.gen.Reseed(seed) }
func (s *gopSource) Pos() int           { return s.gen.Pos() }
func (s *gopSource) Close()             {}

// MeanRate is the analytic encoder mean.
func (s *gopSource) MeanRate() float64 { return s.gen.Config().MeanBytesPerFrame() }

// Marginal is nil: the gop marginal is emergent, not analytic.
func (s *gopSource) Marginal() dist.Distribution { return nil }
