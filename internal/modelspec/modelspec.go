// Package modelspec defines the JSON wire format for traffic-model
// specifications — the contract between the serving layer (cmd/trafficd),
// its clients, and the offline tools. A spec names a Gaussian background
// autocorrelation (the paper's composite knee model, eqs. 10-12) plus a
// foreground marginal, which together determine the synthetic bytes-per-
// frame process: X ~ N(0,1) with the given ACF, Y_k = h(X_k) (eq. 7).
//
// Two producers write specs: hand-written composite parameters (the curl
// path), and cmd/fitmodel -json, which exports a fitted core.Model — the
// compensated background ACF, the empirical marginal sample, and the fit
// metadata (H, attenuation, foreground ACF) for the record.
//
// The package also implements Stream, the deterministic generation loop
// shared by trafficd sessions and offline verification: the same spec and
// seed yield bit-identical frames whether they are streamed over HTTP or
// generated in-process, because both run exactly this code against the
// process-wide plan cache.
package modelspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"vbrsim/internal/acf"
	"vbrsim/internal/core"
	"vbrsim/internal/dist"
	"vbrsim/internal/farima"
	"vbrsim/internal/hosking"
	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/rng"
	"vbrsim/internal/streamblock"
	"vbrsim/internal/tes"
	"vbrsim/internal/trace"
	"vbrsim/internal/transform"
)

// Spec is a serializable traffic-model specification.
type Spec struct {
	// Name labels the spec (becomes the default session name).
	Name string `json:"name,omitempty"`
	// Seed drives generation. 0 lets the server assign one (returned to the
	// client so the stream stays reproducible).
	Seed uint64 `json:"seed,omitempty"`
	// ACF is the background-process autocorrelation (the compensated model
	// when the spec comes from a fit).
	ACF ACFSpec `json:"acf"`
	// Marginal is the foreground marginal; nil means standard normal (the
	// stream is the background process itself).
	Marginal *MarginalSpec `json:"marginal,omitempty"`
	// Engine selects the synthesis engine: "" or "truncated" for the AR(p)
	// fast recursion (exact transform, the historical serving path), "block"
	// for the overlapped-block Davies-Harte streaming engine (exact-FFT
	// blocks, LUT transform, O(1) seek), "gop" for the §3.3 interframe
	// scene/GOP simulator (own correlation structure and marginal; see GOP),
	// or "tes" for the TES modulo-1 process (see TES). All are seed-
	// deterministic and identical offline vs served; their frame values
	// differ between engines by construction.
	Engine string `json:"engine,omitempty"`
	// GOP configures the "gop" engine and must be set exactly for it.
	GOP *GOPSpec `json:"gop,omitempty"`
	// TES configures the "tes" engine and must be set exactly for it; the
	// engine maps the TES background through Marginal (required).
	TES *TESSpec `json:"tes,omitempty"`

	// Fit metadata, written by FromModel for the record; not used for
	// generation.
	H           float64  `json:"h,omitempty"`
	Attenuation float64  `json:"attenuation,omitempty"`
	Foreground  *ACFSpec `json:"foreground,omitempty"`
}

// ACF family names accepted by ACFSpec.Kind.
const (
	// ACFComposite is the paper's composite knee model (eqs. 10-12):
	// exponential mixture before the knee, power law after. The zero Kind
	// means composite, so every pre-Kind spec keeps its meaning.
	ACFComposite = "composite"
	// ACFFarima is the FARIMA(1,d,1) autocorrelation: pure fractional
	// differencing when Phi and Theta are zero, otherwise the full
	// short-memory×long-memory shape.
	ACFFarima = "farima"
	// ACFFGN is exact fractional Gaussian noise increments with Hurst H.
	ACFFGN = "fgn"
)

// ACFSpec serializes the background autocorrelation. Kind selects the
// family and which parameter fields apply; the zero Kind is the composite
// knee model, keeping the original wire format valid unchanged.
type ACFSpec struct {
	// Kind is one of "" / "composite" (Weights, Rates, L, Beta, Knee),
	// "farima" (D, optionally Phi and Theta), or "fgn" (H).
	Kind    string    `json:"kind,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
	Rates   []float64 `json:"rates,omitempty"`
	L       float64   `json:"l,omitempty"`
	Beta    float64   `json:"beta,omitempty"`
	Knee    int       `json:"knee,omitempty"`

	// FARIMA(1,d,1) parameters (Kind "farima").
	D     float64 `json:"d,omitempty"`
	Phi   float64 `json:"phi,omitempty"`
	Theta float64 `json:"theta,omitempty"`
	// H is the fractional-Gaussian-noise Hurst parameter (Kind "fgn").
	H float64 `json:"hurst,omitempty"`
}

// compositeFieldsZero reports whether the composite-family parameters are
// all unset.
func (a ACFSpec) compositeFieldsZero() bool {
	return len(a.Weights) == 0 && len(a.Rates) == 0 && a.L == 0 && a.Beta == 0 && a.Knee == 0
}

// IsZero reports whether the spec is entirely unset (no family selected and
// no parameters) — the form engines without a Gaussian background require.
func (a ACFSpec) IsZero() bool {
	return a.Kind == "" && a.compositeFieldsZero() && a.D == 0 && a.Phi == 0 && a.Theta == 0 && a.H == 0
}

// Model materializes and validates the spec's autocorrelation family.
// Parameters belonging to a different family must be unset, so a typo'd
// spec fails loudly rather than silently ignoring half its numbers.
func (a ACFSpec) Model() (acf.Model, error) {
	switch a.Kind {
	case "", ACFComposite:
		if a.D != 0 || a.Phi != 0 || a.Theta != 0 || a.H != 0 {
			return nil, fmt.Errorf("modelspec: composite acf does not take d/phi/theta/hurst")
		}
		c := a.Composite()
		if err := c.Validate(); err != nil {
			return nil, err
		}
		return c, nil
	case ACFFarima:
		if !a.compositeFieldsZero() || a.H != 0 {
			return nil, fmt.Errorf("modelspec: farima acf takes only d, phi, theta")
		}
		if a.Phi == 0 && a.Theta == 0 {
			m := farima.ACF{D: a.D}
			if err := m.Validate(); err != nil {
				return nil, err
			}
			return m, nil
		}
		return farima.NewFull(a.Phi, a.D, a.Theta)
	case ACFFGN:
		if !a.compositeFieldsZero() || a.D != 0 || a.Phi != 0 || a.Theta != 0 {
			return nil, fmt.Errorf("modelspec: fgn acf takes only hurst")
		}
		if a.H <= 0 || a.H >= 1 {
			return nil, fmt.Errorf("modelspec: fgn hurst must lie in (0,1), got %v", a.H)
		}
		return acf.FGN{H: a.H}, nil
	}
	return nil, fmt.Errorf("modelspec: unknown acf kind %q (want %q, %q or %q)", a.Kind, ACFComposite, ACFFarima, ACFFGN)
}

// AsymptoticHurst returns the Hurst parameter the ACF family implies for
// large aggregation scales: H for fgn, 1 - beta/2 for the composite knee
// model (its power-law tail), d + 1/2 for farima. Returns 0 when the family
// has no LRD tail (e.g. composite with beta = 0) or the spec is unset —
// callers treat 0 as "unknown".
func (a ACFSpec) AsymptoticHurst() float64 {
	switch a.Kind {
	case "", ACFComposite:
		if a.Beta <= 0 || a.Beta >= 2 {
			return 0
		}
		return 1 - a.Beta/2
	case ACFFarima:
		if a.D <= 0 || a.D >= 0.5 {
			return 0
		}
		return a.D + 0.5
	case ACFFGN:
		return a.H
	}
	return 0
}

// Composite converts the spec to the acf model.
func (a ACFSpec) Composite() acf.Composite {
	return acf.Composite{
		Weights: append([]float64(nil), a.Weights...),
		Rates:   append([]float64(nil), a.Rates...),
		L:       a.L,
		Beta:    a.Beta,
		Knee:    a.Knee,
	}
}

func fromComposite(c acf.Composite) ACFSpec {
	return ACFSpec{
		Weights: append([]float64(nil), c.Weights...),
		Rates:   append([]float64(nil), c.Rates...),
		L:       c.L,
		Beta:    c.Beta,
		Knee:    c.Knee,
	}
}

// MarginalSpec serializes the foreground marginal. Kind selects the family
// and which parameter fields apply.
type MarginalSpec struct {
	// Kind is one of "normal" (Mu, Sigma), "lognormal" (Mu, Sigma of log),
	// "gamma" (Shape, Scale), or "empirical" (Sample).
	Kind   string    `json:"kind"`
	Mu     float64   `json:"mu,omitempty"`
	Sigma  float64   `json:"sigma,omitempty"`
	Shape  float64   `json:"shape,omitempty"`
	Scale  float64   `json:"scale,omitempty"`
	Sample []float64 `json:"sample,omitempty"`
}

// Distribution materializes the marginal.
func (m *MarginalSpec) Distribution() (dist.Distribution, error) {
	switch m.Kind {
	case "normal":
		sigma := m.Sigma
		if sigma == 0 {
			sigma = 1
		}
		return dist.Normal{Mu: m.Mu, Sigma: sigma}, nil
	case "lognormal":
		if m.Sigma <= 0 {
			return nil, errors.New("modelspec: lognormal marginal needs sigma > 0")
		}
		return dist.Lognormal{Mu: m.Mu, Sigma: m.Sigma}, nil
	case "gamma":
		if m.Shape <= 0 || m.Scale <= 0 {
			return nil, errors.New("modelspec: gamma marginal needs shape, scale > 0")
		}
		return dist.Gamma{Shape: m.Shape, Scale: m.Scale}, nil
	case "empirical":
		return dist.NewEmpirical(m.Sample)
	}
	return nil, fmt.Errorf("modelspec: unknown marginal kind %q", m.Kind)
}

// Validate checks the spec without building plans.
func (s *Spec) Validate() error {
	switch s.Engine {
	case "", EngineTruncated, EngineBlock:
		if _, err := s.ACF.Model(); err != nil {
			return err
		}
		if s.Marginal != nil {
			if _, err := s.Marginal.Distribution(); err != nil {
				return err
			}
		}
		if s.GOP != nil {
			return fmt.Errorf("modelspec: gop config requires engine %q", EngineGOP)
		}
		if s.TES != nil {
			return fmt.Errorf("modelspec: tes config requires engine %q", EngineTES)
		}
	case EngineGOP:
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
		if s.TES != nil {
			return fmt.Errorf("modelspec: tes config requires engine %q", EngineTES)
		}
	case EngineTES:
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
		if s.GOP != nil {
			return fmt.Errorf("modelspec: gop config requires engine %q", EngineGOP)
		}
	default:
		return fmt.Errorf("modelspec: unknown engine %q (want %q, %q, %q or %q)",
			s.Engine, EngineTruncated, EngineBlock, EngineGOP, EngineTES)
	}
	return nil
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected so
// typos in hand-written specs fail loudly instead of silently streaming the
// wrong model.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("modelspec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Source materializes the spec's background ACF and marginal transform.
// Engines without a Gaussian background ("gop", "tes") have no source
// decomposition and return an error; open them as a Stream instead.
func (s *Spec) Source() (acf.Model, transform.T, error) {
	if err := s.Validate(); err != nil {
		return nil, transform.T{}, err
	}
	if s.Engine == EngineGOP || s.Engine == EngineTES {
		return nil, transform.T{}, fmt.Errorf("modelspec: engine %q has no Gaussian background model", s.Engine)
	}
	target, err := s.target()
	if err != nil {
		return nil, transform.T{}, err
	}
	model, err := s.ACF.Model()
	if err != nil {
		return nil, transform.T{}, err
	}
	return model, transform.New(target), nil
}

// target materializes the foreground marginal of a Gaussian-engine spec:
// standard normal when the spec carries none.
func (s *Spec) target() (dist.Distribution, error) {
	if s.Marginal == nil {
		return dist.StdNormal, nil
	}
	return s.Marginal.Distribution()
}

// SampleCap bounds the empirical-marginal sample FromModel embeds in a
// spec. Larger fitted samples are compacted onto a deterministic quantile
// grid: the rebuilt marginal is statistically indistinguishable but the
// spec stays a few hundred KB instead of tens of MB.
const SampleCap = 4096

// CompactSample returns the quantile-compacted wire form of an empirical
// marginal: the sample itself when it has at most SampleCap observations,
// otherwise the SampleCap-point grid of quantiles at (i+0.5)/SampleCap.
// The result is sorted and at most SampleCap long, so compacting is
// idempotent: rebuilding an Empirical from the result and compacting again
// reproduces the identical slice (the encode-decode-encode stability the
// fuzz tests lock in).
func CompactSample(e *dist.Empirical) []float64 {
	sample := e.Values()
	if len(sample) <= SampleCap {
		return sample
	}
	grid := make([]float64, SampleCap)
	for i := range grid {
		grid[i] = e.Quantile((float64(i) + 0.5) / SampleCap)
	}
	return grid
}

// FromModel exports a fitted unified model as a spec: the compensated
// background ACF, the empirical marginal (quantile-compacted above
// SampleCap observations), and the fit metadata.
func FromModel(m *core.Model, name string, seed uint64) Spec {
	sample := CompactSample(m.Marginal)
	fg := fromComposite(m.Foreground)
	return Spec{
		Name:        name,
		Seed:        seed,
		ACF:         fromComposite(m.Background),
		Marginal:    &MarginalSpec{Kind: "empirical", Sample: sample},
		H:           m.H,
		Attenuation: m.Attenuation,
		Foreground:  &fg,
	}
}

// Paper returns the ready-to-serve spec of the paper's reported model
// (eq. 13: H = 0.9, beta = 0.2, knee 60), continuity-adjusted so it is
// positive definite, with a long-tailed lognormal marginal standing in for
// the proprietary trace's empirical histogram.
func Paper() Spec {
	c := acf.PaperComposite().Continuous()
	if cc, err := c.EnsureConvex(); err == nil {
		c = cc
	}
	return Spec{
		Name:     "paper",
		ACF:      fromComposite(c),
		Marginal: &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
		H:        0.9,
	}
}

// TargetHurst returns the Hurst parameter the session promises to serve:
// the fit metadata H when present (the paper's reported value), otherwise
// whatever the generating ACF family implies asymptotically. 0 means the
// spec makes no self-similarity claim (e.g. gop/tes engines, which carry
// their own correlation structure).
func (s *Spec) TargetHurst() float64 {
	if s.H != 0 {
		return s.H
	}
	return s.ACF.AsymptoticHurst()
}

// Engine names accepted by Spec.Engine.
const (
	// EngineTruncated is the AR(p) fast recursion with the exact transform —
	// the historical serving path, bit-compatible with every pre-engine
	// spec (its golden traces are unchanged).
	EngineTruncated = "truncated"
	// EngineBlock is the overlapped-block Davies-Harte streaming engine:
	// exact-FFT blocks with AR(p)-conditional stitching, the LUT transform,
	// and O(1) seek in either direction.
	EngineBlock = "block"
	// EngineGOP is the §3.3 interframe scene/GOP simulator promoted to a
	// first-class backend: I/P/B frame sizes from heavy-tailed Pareto scenes
	// with Gamma activity and AR(1) modulation. It generates its own
	// correlation structure and long-tailed marginal, so the spec carries a
	// GOPSpec instead of an ACF and marginal.
	EngineGOP = "gop"
	// EngineTES is the TES (Transform-Expand-Sample) generator: a modulo-1
	// uniform background stitched and mapped through the spec marginal.
	EngineTES = "tes"
)

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

// Stream is the deterministic generation loop for a spec: an unbounded
// background generator — the truncated-AR recursion or the overlapped-block
// Davies-Harte engine, per Spec.Engine — behind the process-wide plan
// cache, mapped through the marginal transform. It is bound to a single
// goroutine; trafficd serializes access per session.
type Stream struct {
	g    *gaussian // shared per-spec state; nil for the gop and tes engines
	seed uint64

	// Exactly one of gen (truncated engine), blk (block engine), gop and
	// tes is set.
	gen *hosking.TruncatedGenerator
	blk *streamblock.Stream
	gop *mpegtrace.Generator
	tes *tes.Generator
}

// OpenCtx builds the stream for the spec. For the truncated and block
// engines that is a plan acquisition (cached, cancellable) plus the spec's
// shared state — truncation, transform, and for the block engine the block
// engine and transform LUT — which is built by the first open of the spec
// and reused by every later one, so a warm open pays only for its per-seed
// generator or arena. tol is the partial-correlation cutoff (0 = default).
// The stream starts at frame 0.
func (s *Spec) OpenCtx(ctx context.Context, tol float64) (*Stream, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Engine {
	case EngineGOP:
		cfg, err := s.GOP.Config(s.Seed)
		if err != nil {
			return nil, err
		}
		g, err := mpegtrace.NewGenerator(cfg)
		if err != nil {
			return nil, err
		}
		return &Stream{seed: s.Seed, gop: g}, nil
	case EngineTES:
		target, err := s.Marginal.Distribution()
		if err != nil {
			return nil, err
		}
		g, err := tes.New(s.TES.config(target), rng.New(s.Seed))
		if err != nil {
			return nil, err
		}
		return &Stream{seed: s.Seed, tes: g}, nil
	}
	model, err := s.ACF.Model()
	if err != nil {
		return nil, err
	}
	trunc, err := core.TruncatedPlanForCtx(ctx, model, 0, tol)
	if err != nil {
		return nil, err
	}
	g, err := s.shared(model, trunc)
	if err != nil {
		return nil, err
	}
	st := &Stream{g: g, seed: s.Seed}
	if g.eng != nil {
		st.blk = g.eng.NewStream(s.Seed)
		return st, nil
	}
	st.reset()
	return st, nil
}

func (st *Stream) reset() {
	if st.gen != nil {
		// Re-key in place: bit-identical to a fresh generator, but without
		// allocating (pooled trunk components reseed on every replication).
		st.gen.Reseed(st.seed)
		return
	}
	st.gen = hosking.NewTruncatedGenerator(st.g.trunc, rng.New(st.seed))
}

// Close releases engine-side accounting (the block engine's arena gauge).
// A closed stream must not be used again; Close on a truncated-engine
// stream is a no-op.
func (st *Stream) Close() {
	if st.blk != nil {
		st.blk.Close()
	}
}

// Pos returns the index of the next frame the stream will produce.
func (st *Stream) Pos() int {
	switch {
	case st.blk != nil:
		return st.blk.Pos()
	case st.gop != nil:
		return st.gop.Pos()
	case st.tes != nil:
		return st.tes.Pos()
	}
	return st.gen.Pos()
}

// Seed returns the seed driving the stream.
func (st *Stream) Seed() uint64 { return st.seed }

// Reseed rewinds the stream to frame 0 of the trace keyed by seed,
// discarding generator state but keeping plans, LUTs and arenas. Reseeding
// with Seed() replays the stream bit-identically; the trunk engine uses
// this to re-key pooled component streams per replication without
// allocating.
func (st *Stream) Reseed(seed uint64) {
	st.seed = seed
	switch {
	case st.blk != nil:
		st.blk.Reseed(seed)
	case st.gop != nil:
		st.gop.Reseed(seed)
	case st.tes != nil:
		st.tes.Reseed(seed)
	default:
		st.reset()
	}
}

// Order returns the AR truncation order of the underlying fast plan (for
// the block engine: the stitch overlap length). The gop and tes engines
// have no Gaussian plan and report 0.
func (st *Stream) Order() int {
	if st.g == nil {
		return 0
	}
	return st.g.trunc.Order()
}

// MaxACFError returns the measured ACF error of the truncation (0 for the
// plan-free gop and tes engines).
func (st *Stream) MaxACFError() float64 {
	if st.g == nil {
		return 0
	}
	return st.g.trunc.MaxACFError()
}

// MeanRate returns the stationary mean frame size in bytes — the quantity
// service-rate provisioning scales against: the marginal mean for the
// transform engines and tes, the analytic encoder mean for gop.
func (st *Stream) MeanRate() float64 {
	switch {
	case st.g != nil:
		return st.g.mean
	case st.gop != nil:
		return st.gop.Config().MeanBytesPerFrame()
	}
	return st.tes.Config().Marginal.Mean()
}

// Marginal returns the foreground marginal distribution the stream maps
// frames through, or nil for the gop engine (whose marginal is emergent, not
// analytic). Live monitors compare observed quantiles against it.
func (st *Stream) Marginal() dist.Distribution {
	switch {
	case st.g != nil:
		return st.g.tr.Target
	case st.tes != nil:
		return st.tes.Config().Marginal
	}
	return nil
}

// ImpliedACF returns the model-implied autocorrelation of served frames at
// lags 0..lags-1: the truncated plan's background ACF (the AR(p) extension
// that is bit-true to what the generator actually produces, including the
// truncation error) attenuated through the marginal transform by the paper's
// factor a = Attenuation() — eq. 9's ρ_Y(k) ≈ a·ρ_X(k), with ρ_Y(0) = 1.
// The slice is shared by every stream of the spec and must not be modified.
// Engines without a Gaussian background (gop, tes) return nil: their serve-
// path correlation has no cheap analytic form, so live monitors skip the
// ACF and Hurst checks for them.
func (st *Stream) ImpliedACF(lags int) []float64 {
	if st.g == nil || lags <= 0 {
		return nil
	}
	return st.g.impliedACF(lags)
}

// Next produces the next foreground frame (bytes per frame).
func (st *Stream) Next() float64 {
	switch {
	case st.blk != nil:
		return st.g.lut.Apply(st.blk.Next())
	case st.gop != nil:
		size, _ := st.gop.Next()
		return size
	case st.tes != nil:
		return st.tes.Next()
	}
	return st.g.tr.Apply(st.gen.Next())
}

// Fill produces len(out) consecutive frames.
func (st *Stream) Fill(out []float64) {
	switch {
	case st.blk != nil:
		// Background block fill, then the LUT in place — bit-identical to
		// Next (same LUT evaluation), with no intermediate buffer.
		st.blk.Fill(out)
		st.g.lut.ApplyTo(out, out)
		return
	case st.gop != nil:
		for i := range out {
			out[i], _ = st.gop.Next()
		}
		return
	case st.tes != nil:
		for i := range out {
			out[i] = st.tes.Next()
		}
		return
	}
	tr := st.g.tr
	for i := range out {
		out[i] = tr.Apply(st.gen.Next())
	}
}

// Seek positions the stream so the next frame is frame pos. On the
// truncated engine a backward seek replays deterministically from the seed
// (O(p) per skipped frame); the block engine seeks in O(1) either way.
func (st *Stream) Seek(pos int) { st.SeekCtx(context.Background(), pos) }

// seekCheckEvery is how many skipped frames SeekCtx generates between
// context polls: frequent enough that canceling a request aborts a long
// replay within milliseconds, rare enough to stay invisible in the O(p)
// per-frame cost.
const seekCheckEvery = 1 << 13

// SeekCtx is Seek with cancellation. pos is client-controlled in trafficd,
// so the truncated engine's replay loop polls ctx; on cancellation the
// stream is left at whatever position the replay reached (still a valid
// state — a later seek continues or resets from there). The block engine
// seeks in constant time and never reports cancellation.
func (st *Stream) SeekCtx(ctx context.Context, pos int) error {
	if pos < 0 {
		pos = 0
	}
	if st.blk != nil {
		st.blk.Seek(pos)
		return nil
	}
	if pos < st.Pos() {
		if st.gen != nil {
			st.reset()
		} else {
			st.Reseed(st.seed) // gop/tes: rewind and replay from the seed
		}
	}
	// Replay skips the marginal transform on the truncated engine (it is
	// stateless); the gop and tes engines step their own foreground draw.
	step := st.Next
	if st.gen != nil {
		step = st.gen.Next
	}
	for n := 0; st.Pos() < pos; n++ {
		if n%seekCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		step()
	}
	return nil
}

// Frames generates frames [from, from+n) offline, exactly as a trafficd
// session streams them for the same spec and seed — the reference
// implementation for resume semantics and for end-to-end verification.
func (s *Spec) Frames(ctx context.Context, from, n int, tol float64) ([]float64, error) {
	st, err := s.OpenCtx(ctx, tol)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.SeekCtx(ctx, from); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	st.Fill(out)
	return out, nil
}
