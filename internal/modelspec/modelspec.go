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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"vbrsim/internal/acf"
	"vbrsim/internal/core"
	"vbrsim/internal/dist"
	"vbrsim/internal/farima"
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

// Parse decodes and validates a JSON spec. Unknown fields are rejected so
// typos in hand-written specs fail loudly instead of silently streaming the
// wrong model.
func Parse(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
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
	if !engineFor(s.Engine).gaussian {
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
		// Interpolating between equal neighbours can round an ulp either
		// way; keep the grid sorted so compacting it again is the identity.
		if i > 0 && grid[i] < grid[i-1] {
			grid[i] = grid[i-1]
		}
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

// Stream is the deterministic generation loop for a spec: one engine's
// source (see the engine table) behind the process-wide plan cache, and
// for the Gaussian-background engines the spec's shared state. It is bound
// to a single goroutine; trafficd serializes access per session.
type Stream struct {
	src  source
	g    *gaussian // shared per-spec state; nil without a Gaussian background
	seed uint64
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
	return engineFor(s.Engine).open(ctx, s, tol)
}

// Close releases engine-side accounting (the block engine's arena gauge).
// A closed stream must not be used again.
func (st *Stream) Close() { st.src.Close() }

// Pos returns the index of the next frame the stream will produce.
func (st *Stream) Pos() int { return st.src.Pos() }

// Seed returns the seed driving the stream.
func (st *Stream) Seed() uint64 { return st.seed }

// Reseed rewinds the stream to frame 0 of the trace keyed by seed,
// discarding generator state but keeping plans, LUTs and arenas. Reseeding
// with Seed() replays the stream bit-identically; the trunk engine uses
// this to re-key pooled component streams per replication without
// allocating.
func (st *Stream) Reseed(seed uint64) {
	st.seed = seed
	st.src.Reseed(seed)
}

// Order returns the AR truncation order of the underlying fast plan (for
// the block engine: the stitch overlap length). Engines without a Gaussian
// background have no plan and report 0.
func (st *Stream) Order() int {
	if st.g == nil {
		return 0
	}
	return st.g.trunc.Order()
}

// MaxACFError returns the measured ACF error of the truncation (0 for the
// plan-free engines).
func (st *Stream) MaxACFError() float64 {
	if st.g == nil {
		return 0
	}
	return st.g.trunc.MaxACFError()
}

// MeanRate returns the stationary mean frame size in bytes — the quantity
// service-rate provisioning scales against: the marginal mean for the
// transform engines and tes, the analytic encoder mean for gop.
func (st *Stream) MeanRate() float64 { return st.src.MeanRate() }

// Marginal returns the foreground marginal distribution the stream maps
// frames through, or nil for the gop engine (whose marginal is emergent, not
// analytic). Live monitors compare observed quantiles against it.
func (st *Stream) Marginal() dist.Distribution { return st.src.Marginal() }

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

// Memo returns the value build makes for key, shared by every stream of
// the spec: the Gaussian engines keep it in the spec's shared state, which
// is released with its truncation. Concurrent first requests may each
// build, but all of them get the one value kept. The state holds one
// value; a request under another key builds it anew and takes its place. key must be comparable and must capture every input of build
// that the spec's shared state does not determine (its claimed H, say).
// Engines without shared state (gop, tes) call build on every request.
func (st *Stream) Memo(key any, build func() any) any {
	if st.g == nil {
		return build()
	}
	return st.g.memo(key, build)
}

// Fill produces len(out) consecutive frames.
func (st *Stream) Fill(out []float64) { st.src.Fill(out) }

// Seek positions the stream so the next frame is frame pos. On the
// truncated engine a backward seek replays deterministically from the seed
// (O(p) per skipped frame); the block engine seeks in O(1) either way.
func (st *Stream) Seek(pos int) { st.SeekCtx(context.Background(), pos) }

// SeekCtx is Seek with cancellation. pos is client-controlled in trafficd,
// so engines that replay from the seed poll ctx; on cancellation the
// stream is left at whatever position the replay reached (still a valid
// state — a later seek continues or resets from there). The block engine
// seeks in constant time and never reports cancellation.
func (st *Stream) SeekCtx(ctx context.Context, pos int) error {
	if pos < 0 {
		pos = 0
	}
	return st.src.SeekCtx(ctx, pos)
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
