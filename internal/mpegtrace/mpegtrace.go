// Package mpegtrace is a scene-oriented simulator of an MPEG-1 VBR video
// encoder. It stands in for the proprietary "Last Action Hero" empirical
// trace used by the paper (Table 1): the paper's modeling pipeline consumes
// only the statistics of its input trace, and this source produces a
// bytes-per-frame record with exactly the structural features the pipeline
// exploits:
//
//   - long-range dependence with a controllable Hurst parameter, created by
//     heavy-tailed (Pareto) scene durations — for scene-length tail index
//     alpha in (1,2) the resulting aggregate process has H = (3-alpha)/2;
//   - short-range dependence (the ACF "knee"), created by AR(1) modulation
//     of the coding activity within each scene;
//   - a long-tailed non-Gaussian marginal, from Gamma-distributed per-scene
//     activity combined with lognormal per-frame noise; and
//   - the MPEG-1 GOP structure IBBPBBPBBPBB, with I frames several times
//     larger than P frames, which are larger than B frames.
//
// The generator is fully deterministic given its seed.
package mpegtrace

import (
	"errors"
	"math"

	"vbrsim/internal/rng"
	"vbrsim/internal/trace"
)

// Config parameterizes the synthetic encoder.
type Config struct {
	// Frames is the number of frames to generate. The paper's trace has
	// 238,626 frames (2h12m36s at 30 fps).
	Frames int
	// FrameRate in frames per second; informational. Default 30.
	FrameRate float64
	// GOP is the group-of-pictures pattern; default trace.DefaultGOP
	// (IBBPBBPBBPBB).
	GOP []trace.FrameType

	// SceneAlpha is the Pareto tail index of scene durations in frames;
	// alpha in (1,2) yields LRD with H = (3-alpha)/2. Default 1.2 (H=0.9).
	SceneAlpha float64
	// SceneMinFrames is the Pareto location (minimum scene length). Default 24.
	SceneMinFrames float64

	// ActivityShape/ActivityScale parameterize the Gamma distribution of the
	// per-scene coding activity (the base bytes per frame of the scene).
	// Defaults 2.2 and 1300, giving a mean near 2900 bytes/frame with a long
	// right tail, in the range of the paper's Fig. 1.
	ActivityShape float64
	ActivityScale float64

	// ModPhi is the AR(1) coefficient of the within-scene activity
	// modulation (the SRD component); default 0.95.
	ModPhi float64
	// ModSigma is the stationary standard deviation of the log-modulation;
	// default 0.25.
	ModSigma float64

	// IScale, PScale, BScale are the frame-type size multipliers; defaults
	// 2.8, 1.3 and 0.55 (I > P > B, as MPEG-1 coders produce).
	IScale, PScale, BScale float64
	// FrameNoiseSigma is the per-frame lognormal noise sigma; default 0.12.
	FrameNoiseSigma float64

	// Seed makes the trace reproducible.
	Seed uint64
}

// withDefaults fills zero fields with defaults.
func (c Config) withDefaults() Config {
	if c.FrameRate == 0 {
		c.FrameRate = 30
	}
	if c.GOP == nil {
		c.GOP = trace.DefaultGOP
	}
	if c.SceneAlpha == 0 {
		c.SceneAlpha = 1.2
	}
	if c.SceneMinFrames == 0 {
		c.SceneMinFrames = 24
	}
	if c.ActivityShape == 0 {
		c.ActivityShape = 2.2
	}
	if c.ActivityScale == 0 {
		c.ActivityScale = 1300
	}
	if c.ModPhi == 0 {
		c.ModPhi = 0.95
	}
	if c.ModSigma == 0 {
		c.ModSigma = 0.25
	}
	if c.IScale == 0 {
		c.IScale = 2.8
	}
	if c.PScale == 0 {
		c.PScale = 1.3
	}
	if c.BScale == 0 {
		c.BScale = 0.55
	}
	if c.FrameNoiseSigma == 0 {
		c.FrameNoiseSigma = 0.12
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Frames <= 0 {
		return errors.New("mpegtrace: Frames must be positive")
	}
	if c.SceneAlpha <= 1 || c.SceneAlpha >= 2 {
		return errors.New("mpegtrace: SceneAlpha must lie in (1,2) for LRD")
	}
	if c.SceneMinFrames < 1 {
		return errors.New("mpegtrace: SceneMinFrames must be >= 1")
	}
	if c.ModPhi < 0 || c.ModPhi >= 1 {
		return errors.New("mpegtrace: ModPhi must lie in [0,1)")
	}
	if len(c.GOP) == 0 {
		return errors.New("mpegtrace: empty GOP pattern")
	}
	if c.IScale <= 0 || c.PScale <= 0 || c.BScale <= 0 {
		return errors.New("mpegtrace: frame-type scales must be positive")
	}
	return nil
}

// TargetHurst returns the Hurst parameter the scene-length tail implies:
// H = (3 - alpha)/2.
func (c Config) TargetHurst() float64 {
	cc := c.withDefaults()
	return (3 - cc.SceneAlpha) / 2
}

// MeanBytesPerFrame returns the analytic stationary mean frame size implied
// by the configuration: E[activity]·E[e^mod]·E[scale]·E[noise] with
// Gamma activity (shape·scale), lognormal modulation and noise factors
// (e^{σ²/2}), and the frame-type scale averaged over the GOP pattern. The
// 64-byte floor and rounding are ignored; for default-scale configurations
// they shift the mean by well under a percent.
func (c Config) MeanBytesPerFrame() float64 {
	cc := c.withDefaults()
	var scaleSum float64
	for _, ft := range cc.GOP {
		switch ft {
		case trace.FrameI:
			scaleSum += cc.IScale
		case trace.FrameP:
			scaleSum += cc.PScale
		default:
			scaleSum += cc.BScale
		}
	}
	meanScale := scaleSum / float64(len(cc.GOP))
	meanActivity := cc.ActivityShape * cc.ActivityScale
	return meanActivity *
		math.Exp(cc.ModSigma*cc.ModSigma/2) *
		meanScale *
		math.Exp(cc.FrameNoiseSigma*cc.FrameNoiseSigma/2)
}

// Generator steps the synthetic encoder one frame at a time, carrying the
// scene state (remaining scene length, activity level, AR(1) modulation)
// across calls. Its draw order is exactly that of Generate, so N calls to
// Next reproduce Generate's first N frames bit for bit; that makes the GOP
// model servable as an unbounded deterministic stream (seek = reseed and
// replay).
type Generator struct {
	cfg Config // defaults filled
	r   *rng.Source
	pos int

	sceneLeft int
	activity  float64
	// Within-scene AR(1) log-modulation with stationary std ModSigma.
	innov, mod float64
}

// NewGenerator validates cfg and returns a generator positioned at frame 0.
// cfg.Frames may be zero: a streaming generator is unbounded.
func NewGenerator(cfg Config) (*Generator, error) {
	vc := cfg
	if vc.Frames == 0 {
		vc.Frames = 1 // streams are unbounded; satisfy the finite-trace check
	}
	if err := vc.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg.withDefaults()}
	g.innov = g.cfg.ModSigma * math.Sqrt(1-g.cfg.ModPhi*g.cfg.ModPhi)
	g.Reseed(g.cfg.Seed)
	return g, nil
}

// Reseed rewinds the generator to frame 0 of the trace keyed by seed,
// discarding all scene state. Reseed(Seed()) replays the stream from the
// start bit-identically.
func (g *Generator) Reseed(seed uint64) {
	g.cfg.Seed = seed
	if g.r == nil {
		g.r = rng.New(seed)
	} else {
		g.r.Reseed(seed)
	}
	g.pos = 0
	g.sceneLeft = 0
	g.activity = 0
	g.mod = g.cfg.ModSigma * g.r.Norm()
}

// Pos returns the index of the next frame Next will produce.
func (g *Generator) Pos() int { return g.pos }

// Config returns the generator's configuration with defaults filled.
func (g *Generator) Config() Config { return g.cfg }

// Next produces the next frame's size in bytes and its GOP frame type.
func (g *Generator) Next() (size float64, ft trace.FrameType) {
	c := &g.cfg
	if g.sceneLeft == 0 {
		// New scene: heavy-tailed duration, fresh activity level.
		g.sceneLeft = int(g.r.Pareto(c.SceneAlpha, c.SceneMinFrames))
		if g.sceneLeft < 1 {
			g.sceneLeft = 1
		}
		g.activity = g.r.Gamma(c.ActivityShape, c.ActivityScale)
		// A scene cut usually resets the modulation (new content).
		g.mod = c.ModSigma * g.r.Norm()
	}
	g.sceneLeft--

	g.mod = c.ModPhi*g.mod + g.innov*g.r.Norm()

	ft = c.GOP[g.pos%len(c.GOP)]
	var scale float64
	switch ft {
	case trace.FrameI:
		scale = c.IScale
	case trace.FrameP:
		scale = c.PScale
	default:
		scale = c.BScale
	}
	noise := math.Exp(c.FrameNoiseSigma * g.r.Norm())
	size = g.activity * math.Exp(g.mod) * scale * noise
	// MPEG frames always carry headers; floor at a small positive size.
	if size < 64 {
		size = 64
	}
	g.pos++
	return math.Round(size), ft
}

// Generate produces the synthetic trace by stepping a Generator cfg.Frames
// times.
func Generate(cfg Config) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	c := g.cfg

	tr := &trace.Trace{
		Sizes:     make([]float64, c.Frames),
		Types:     make([]trace.FrameType, c.Frames),
		FrameRate: c.FrameRate,
		GOPLength: len(c.GOP),
	}
	for i := 0; i < c.Frames; i++ {
		tr.Sizes[i], tr.Types[i] = g.Next()
	}
	return tr, nil
}
