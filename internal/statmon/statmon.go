// Package statmon implements live statistical self-monitoring of served VBR
// traffic. A Monitor taps frames on the serve path (sampled per chunk,
// zero-copy, allocation-free in steady state) and maintains the three
// distributional checks the paper's offline conformance harness runs after
// the fact: an online aggregated-variance Hurst estimate over dyadic block
// scales, running autocorrelation at a pinned lag set against the session's
// model-implied ACF, and a P² quantile sketch of the marginal against the
// model quantile function. The three errors collapse into a scalar drift
// score; a session whose score crosses the configured threshold is flagged
// as drifting ("is the traffic still self-similar with the H we promised?").
//
// The Hurst check cancels finite-scale estimator bias by fitting the same
// dyadic variance-time regression to the model-implied aggregated variances
// (derived from the implied ACF via var(X^(m)) ∝ m⁻¹[1 + 2Σ(1-k/m)ρ_k]) over
// exactly the scales the live estimate used, then shifting by the gap between
// the session's claimed H and the ACF-implied asymptotic H. For a consistent
// model the reference tracks the estimator's own bias and the error term is
// pure sampling noise; for a mis-modeled session (claimed H ≠ generated H)
// the full gap surfaces in the score.
package statmon

import (
	"math"
	"sync"
	"sync/atomic"

	"vbrsim/internal/hurst"
	"vbrsim/internal/stats"
)

// DefaultLags is the pinned ACF lag set: dyadic coverage of the paper's SRD
// knee region (the fitted composite knee sits at lag 60) plus the early LRD
// tail.
func DefaultLags() []int { return []int{1, 2, 4, 8, 16, 32, 64, 128} }

// DefaultQuantiles is the watched marginal quantile set.
func DefaultQuantiles() []float64 { return []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} }

// minLagCount is the product-count floor below which a lag's correlation is
// too noisy to score.
const minLagCount = 256

// marginalStride feeds every 4th observed frame to the quantile sketches.
// The P² update is the most expensive per-frame step (six sketches), and
// quantiles of a stationary marginal lose nothing to stride subsampling —
// unlike the ACF and variance cascade, which need contiguous runs.
const marginalStride = 4

// Config tunes a Monitor. Zero values select the documented defaults.
type Config struct {
	// SampleEvery observes every k-th chunk handed to Observe; <= 1
	// observes every chunk. Sampling is per chunk, not per frame, so each
	// observation is a contiguous run and the ACF/Hurst state stays valid
	// within it.
	SampleEvery int
	// Lags is the pinned ACF lag set (default DefaultLags).
	Lags []int
	// Quantiles is the watched marginal quantile set (default
	// DefaultQuantiles).
	Quantiles []float64
	// HurstTol, ACFTol, MarginTol normalize the three error terms; a term
	// at its tolerance contributes 1.0 to the drift score. Defaults
	// 0.08 / 0.10 / 0.15.
	HurstTol, ACFTol, MarginTol float64
	// DriftThreshold flags the session when the drift score reaches it
	// (default 1.0).
	DriftThreshold float64
	// MinFrames gates drift scoring until enough frames were observed
	// (default 8192).
	MinFrames int
	// MinScale / MaxScale bound the dyadic variance-time fit. MinScale
	// (default 16) excludes the strongly SRD-contaminated scales; MaxScale
	// (default 1024) must not exceed the serve-path chunk size — sampled
	// taps see a series contiguous only within chunks, and larger blocks
	// would mix frames across gaps.
	MinScale, MaxScale int
	// MinBlocks is the completed-block floor per scale (default 32; see
	// hurst.AggVar.Estimate for why fewer biases H low).
	MinBlocks int
}

func (c Config) withDefaults() Config {
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	if c.Lags == nil {
		c.Lags = DefaultLags()
	}
	if c.Quantiles == nil {
		c.Quantiles = DefaultQuantiles()
	}
	if c.HurstTol <= 0 {
		c.HurstTol = 0.08
	}
	if c.ACFTol <= 0 {
		c.ACFTol = 0.10
	}
	if c.MarginTol <= 0 {
		c.MarginTol = 0.15
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 1.0
	}
	if c.MinFrames <= 0 {
		c.MinFrames = 8192
	}
	if c.MinScale <= 0 {
		c.MinScale = 16
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 1024
	}
	if c.MinBlocks <= 0 {
		c.MinBlocks = 32
	}
	return c
}

// Ref is the model the session promised to serve. Zero-valued fields switch
// the corresponding check off, so an empty Ref yields a monitor that tracks
// statistics without ever scoring drift (used for engines whose implied
// moments are not analytically available, e.g. trunk superpositions).
type Ref struct {
	// H is the claimed asymptotic Hurst parameter (Spec.H fit metadata).
	H float64
	// AsymH is the asymptotic H implied by the generating ACF spec. For a
	// consistent model AsymH == H; a gap between them is exactly the
	// mis-modeling the drift score must surface.
	AsymH float64
	// ImpliedACF is the model-implied autocorrelation of served traffic,
	// ρ(0..len-1) with ImpliedACF[0] == 1, long enough to cover MaxScale.
	ImpliedACF []float64
	// Mean is the model mean frame size. Nothing reads it: a snapshot's
	// mean is the observed one, and no check compares it with the model.
	// The field stays because the serving benchmark's ladder still sets it.
	Mean float64
	// Quantile is the model marginal quantile function.
	Quantile func(p float64) float64
}

// LagCorr is one observed-vs-reference autocorrelation point.
type LagCorr struct {
	Lag      int     `json:"lag"`
	Observed float64 `json:"observed"`
	Ref      float64 `json:"ref"`
	N        float64 `json:"n"`
}

// QuantileEst is one observed-vs-reference marginal quantile point.
type QuantileEst struct {
	P        float64 `json:"p"`
	Observed float64 `json:"observed"`
	Ref      float64 `json:"ref,omitempty"`
}

// Snapshot is a point-in-time summary of a session's observed statistics,
// served by GET /v1/sessions/{id}/stats.
type Snapshot struct {
	Frames      uint64        `json:"frames_observed"`
	Mean        float64       `json:"mean"`
	Variance    float64       `json:"variance"`
	Hurst       float64       `json:"hurst,omitempty"`
	HurstRef    float64       `json:"hurst_ref,omitempty"`
	HurstErr    float64       `json:"hurst_err,omitempty"`
	HurstValid  bool          `json:"hurst_valid"`
	ACF         []LagCorr     `json:"acf,omitempty"`
	ACFErr      float64       `json:"acf_err"`
	Quantiles   []QuantileEst `json:"quantiles,omitempty"`
	MarginalErr float64       `json:"marginal_err"`
	Drift       float64       `json:"drift"`
	Drifting    bool          `json:"drifting"`
}

// Settings is a Config with its defaults filled in and the sizes a
// monitor derives from it. It is immutable and shared by every Monitor
// built from it: the server builds one and hands it to each session.
type Settings struct {
	cfg     Config
	maxLag  int // largest configured lag
	ringLen int // lag ring length: maxLag rounded up to a power of two
}

// NewSettings fills cfg's defaults and derives the per-monitor sizes.
func NewSettings(cfg Config) *Settings {
	st := &Settings{cfg: cfg.withDefaults()}
	for _, lag := range st.cfg.Lags {
		st.maxLag = max(st.maxLag, lag)
	}
	st.ringLen = 1
	for st.ringLen < st.maxLag {
		st.ringLen <<= 1
	}
	return st
}

// Reference is a Ref compiled for scoring: the implied ACF it was built
// from, the model-implied variance-time curve derived from it, and the
// marginal normalization. It is immutable and independent of any Config,
// so one Reference serves every monitor of a spec; the server keeps it in
// the spec's shared state (modelspec.Stream.Memo).
type Reference struct {
	h, asymH float64
	quantile func(p float64) float64
	rho      []float64 // implied ρ(0..len-1); shared, never modified
	logVar   []float64 // model-implied log10 var(X^(m)) per dyadic level m <= len(rho)
	scale    float64   // marginal normalization: ref q(0.9) - q(0.1); 0 switches the check off
}

// NewReference compiles ref. It keeps ref.ImpliedACF without copying it,
// so the caller must not modify that slice afterwards.
func NewReference(ref Ref) *Reference {
	r := &Reference{h: ref.H, asymH: ref.AsymH, quantile: ref.Quantile, rho: ref.ImpliedACF}
	r.logVar = impliedLogVar(ref.ImpliedACF)
	if ref.Quantile != nil {
		if s := ref.Quantile(0.9) - ref.Quantile(0.1); s > 0 {
			r.scale = s
		}
	}
	return r
}

// Monitor holds the streaming state for one session: only the accumulators
// it owns, with everything immutable behind two shared pointers. All
// methods are safe for concurrent use. A chunk that sampling skips costs
// one atomic add; an observed chunk takes the lock once, never per frame,
// and Observe never blocks on anything a metrics scrape holds.
type Monitor struct {
	set *Settings
	ref *Reference

	offered atomic.Uint64 // chunks offered to Observe (sampling)

	mu      sync.Mutex
	nextPos int64 // expected position of the next contiguous chunk
	run     int   // contiguous frames since the last gap
	w       int   // ring write index

	hasOff bool
	stride uint8   // marginal subsampling phase
	off    float64 // centering offset: first observed frame
	n      float64 // frames observed
	sum    float64 // Σ (x - off)
	sum2   float64 // Σ (x - off)²
	agg    hurst.AggVar
	// acc is one allocation: the lag ring of the last ringLen centered
	// values, then Σ d_t · d_{t-lag} per configured lag, then the product
	// count per lag.
	acc    []float64
	sketch []p2 // one per configured quantile
}

// New builds a Monitor for a session promising ref under cfg. A caller
// that opens many monitors shares one NewSettings and one NewReference
// per spec through Settings.New instead.
func New(cfg Config, ref Ref) *Monitor { return NewSettings(cfg).New(NewReference(ref)) }

// New builds a Monitor that scores against ref under these settings.
func (st *Settings) New(ref *Reference) *Monitor {
	return &Monitor{
		set:    st,
		ref:    ref,
		agg:    hurst.NewAggVar(st.cfg.MaxScale),
		acc:    make([]float64, st.ringLen+2*len(st.cfg.Lags)),
		sketch: make([]p2, len(st.cfg.Quantiles)),
	}
}

// lagState splits acc into the ring and the per-lag product sums and
// counts.
func (m *Monitor) lagState() (ring, lagProd, lagN []float64) {
	r, l := m.set.ringLen, len(m.set.cfg.Lags)
	return m.acc[:r], m.acc[r : r+l], m.acc[r+l : r+2*l]
}

// impliedLogVar maps an implied ACF to log10 var(X^(m)) on the dyadic grid
// m <= len(rho) (unit marginal variance — the regression slope is
// scale-invariant): var(X^(m)) = (1/m)[1 + 2 Σ_{k=1}^{m-1} (1 - k/m) ρ(k)].
// Each level depends only on ρ below m, so a fit capped at MaxScale reads
// the same values a grid stopped at MaxScale would hold.
func impliedLogVar(rho []float64) []float64 {
	var out []float64
	for m := 1; m <= len(rho); m <<= 1 {
		s := 1.0
		for k := 1; k < m; k++ {
			s += 2 * (1 - float64(k)/float64(m)) * rho[k]
		}
		v := s / float64(m)
		if v <= 0 {
			// Implied variance collapsed (pathological ACF); stop the
			// grid here rather than emit -Inf.
			break
		}
		out = append(out, math.Log10(v))
	}
	return out
}

// Observe feeds one contiguous chunk of served frames starting at absolute
// stream position pos. It reports whether the chunk was actually observed
// (sampling may skip it, without taking the lock). Observe is
// allocation-free and does not retain frames.
func (m *Monitor) Observe(pos int64, frames []float64) bool {
	if m == nil || len(frames) == 0 {
		return false
	}
	cfg := &m.set.cfg
	if every := uint64(cfg.SampleEvery); every > 1 && m.offered.Add(1)%every != 0 {
		return false
	}
	m.mu.Lock()
	if pos != m.nextPos {
		// Gap (seek, skipped chunk, interleaved request): the ring no
		// longer holds the preceding lags.
		m.run = 0
	}
	m.nextPos = pos + int64(len(frames))
	if !m.hasOff {
		m.off = frames[0]
		m.hasOff = true
	}
	lags, qs, maxLag := cfg.Lags, cfg.Quantiles, m.set.maxLag
	ring, lagProd, lagN := m.lagState()
	msk := len(ring) - 1
	for _, x := range frames {
		d := x - m.off
		m.n++
		m.sum += d
		m.sum2 += d * d
		m.agg.Push(x)
		if m.run >= maxLag {
			// Steady state: every lag has history; no run checks.
			for j, lag := range lags {
				lagProd[j] += d * ring[(m.w-lag)&msk]
			}
		} else {
			for j, lag := range lags {
				if m.run >= lag {
					lagProd[j] += d * ring[(m.w-lag)&msk]
					lagN[j]++
				}
			}
		}
		ring[m.w&msk] = d
		m.w = (m.w + 1) & msk
		m.run++
		if m.stride++; m.stride >= marginalStride {
			m.stride = 0
			for i := range m.sketch {
				m.sketch[i].push(x, qs[i])
			}
		}
	}
	if m.run >= maxLag {
		// Fold the steady-state product counts in one shot per chunk: each
		// lag gained one product per frame once past warmup. Splitting the
		// chunk at the warmup boundary keeps the counts exact.
		steady := float64(len(frames))
		if over := m.run - len(frames); over < maxLag {
			steady = float64(m.run - maxLag)
		}
		for j := range lagN {
			lagN[j] += steady
		}
	}
	m.mu.Unlock()
	return true
}

// Snapshot computes the current summary and drift score. It allocates (plot
// slices, fit buffers) and is meant for the stats endpoint and metric
// collection, not the frame path.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s Snapshot
	s.Frames = uint64(m.n)
	if m.n > 0 {
		mean := m.sum / m.n
		s.Mean = m.off + mean
		s.Variance = m.sum2/m.n - mean*mean
	}
	m.snapshotHurst(&s)
	m.snapshotACF(&s)
	m.snapshotMarginal(&s)
	if cfg := &m.set.cfg; s.Frames >= uint64(cfg.MinFrames) {
		if s.HurstValid && cfg.HurstTol > 0 {
			s.Drift = math.Max(s.Drift, s.HurstErr/cfg.HurstTol)
		}
		if len(s.ACF) > 0 {
			s.Drift = math.Max(s.Drift, s.ACFErr/cfg.ACFTol)
		}
		if m.ref.scale > 0 {
			s.Drift = math.Max(s.Drift, s.MarginalErr/cfg.MarginTol)
		}
		s.Drifting = s.Drift >= cfg.DriftThreshold
	}
	return s
}

func (m *Monitor) snapshotHurst(s *Snapshot) {
	cfg, ref := &m.set.cfg, m.ref
	est, err := m.agg.Estimate(cfg.MinScale, cfg.MaxScale, cfg.MinBlocks)
	if err != nil {
		return
	}
	s.Hurst = est.H
	// The check needs a reference: the model-implied variance-time curve
	// fit over exactly the scales the live estimate used (so finite-scale
	// bias cancels), shifted by the claimed-vs-implied asymptotic gap. An
	// implied ACF shorter than MaxScale switches it off.
	if len(ref.rho) < cfg.MaxScale {
		return
	}
	refH := ref.h
	if refH == 0 {
		refH = ref.asymH
	}
	if refH == 0 {
		return
	}
	var rx, ry []float64
	for _, lx := range est.X {
		level := int(math.Round(math.Log2(math.Round(math.Pow(10, lx)))))
		if level < 0 || level >= len(ref.logVar) {
			return // live fit used a scale the ref curve cannot cover
		}
		rx = append(rx, lx)
		ry = append(ry, ref.logVar[level])
	}
	slope, _, _, err2 := stats.LinearFit(rx, ry)
	if err2 != nil {
		return
	}
	modelFiniteH := 1 + slope/2
	asym := ref.asymH
	if asym == 0 {
		asym = refH
	}
	s.HurstRef = modelFiniteH + (refH - asym)
	s.HurstErr = math.Abs(est.H - s.HurstRef)
	s.HurstValid = true
}

func (m *Monitor) snapshotACF(s *Snapshot) {
	if m.n < 2 {
		return
	}
	mean := m.sum / m.n
	variance := m.sum2/m.n - mean*mean
	if variance <= 0 {
		return
	}
	// The implied ACF scores the lags only when it covers all of them.
	refRho := m.ref.rho
	if len(refRho) <= m.set.maxLag {
		refRho = nil
	}
	_, lagProd, lagN := m.lagState()
	for j, lag := range m.set.cfg.Lags {
		if lagN[j] < minLagCount {
			continue
		}
		rho := (lagProd[j]/lagN[j] - mean*mean) / variance
		lc := LagCorr{Lag: lag, Observed: rho, N: lagN[j]}
		if refRho != nil {
			lc.Ref = refRho[lag]
			if e := math.Abs(rho - lc.Ref); e > s.ACFErr {
				s.ACFErr = e
			}
		}
		s.ACF = append(s.ACF, lc)
	}
}

func (m *Monitor) snapshotMarginal(s *Snapshot) {
	ref := m.ref
	for i, p := range m.set.cfg.Quantiles {
		qe := QuantileEst{P: p, Observed: m.sketch[i].quantile(p)}
		if ref.quantile != nil {
			qe.Ref = ref.quantile(p)
			if ref.scale > 0 && m.sketch[i].cnt >= 5 {
				if e := math.Abs(qe.Observed-qe.Ref) / ref.scale; e > s.MarginalErr {
					s.MarginalErr = e
				}
			}
		}
		s.Quantiles = append(s.Quantiles, qe)
	}
}
