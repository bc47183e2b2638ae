// Package experiments regenerates every table and figure of the paper's
// evaluation. Each method of Lab corresponds to one exhibit (Table 1,
// Figs. 1-17), returns the underlying data as named series, and records
// paper-vs-measured notes. The Lab caches the expensive shared artifacts —
// the synthetic empirical traces (the substitute for "Last Action Hero",
// see DESIGN.md) and the fitted models — so the full suite runs each
// pipeline stage once.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"vbrsim/internal/acf"
	"vbrsim/internal/baseline"
	"vbrsim/internal/core"
	"vbrsim/internal/hosking"
	"vbrsim/internal/impsample"
	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/norros"
	"vbrsim/internal/queue"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
	"vbrsim/internal/trace"
)

// Series is one named data series of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// Result is the regenerated data behind one exhibit.
type Result struct {
	ID     string // e.g. "fig16"
	Title  string
	Series []Series
	Notes  []string // scalar findings, paper-vs-measured commentary
}

// AddNote appends a formatted note.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteData writes the result's series as whitespace-separated columns with
// comment headers (gnuplot-consumable).
func (r *Result) WriteData(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	for _, s := range r.Series {
		if _, err := fmt.Fprintf(w, "\n# series: %s\n", s.Name); err != nil {
			return err
		}
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%g\t%g\n", s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Config scales the experiment suite.
type Config struct {
	// TraceFrames is the synthetic empirical trace length; default 1<<17
	// (about half the paper's 238,626 frames). Set 238626 for full scale.
	TraceFrames int
	// Seed drives everything deterministically.
	Seed uint64
	// Replications for Monte-Carlo/IS experiments; default 1000 (paper).
	Replications int
	// Quick shrinks sweeps (fewer buffer sizes, shorter horizons, fewer
	// replications) for benchmarks and smoke tests.
	Quick bool
	// FastPath switches the Section 4 queueing experiments to the
	// truncated-AR(p) Hosking fast path: per-step cost drops from O(k) to
	// O(p), and (outside Quick mode) Fig 16/17 extend their buffer sweeps
	// to paper-scale horizons beyond the exact-plan limit. The truncation
	// order and measured ACF error are recorded in the exhibit notes.
	FastPath bool
}

func (c Config) withDefaults() Config {
	if c.TraceFrames == 0 {
		if c.Quick {
			c.TraceFrames = 1 << 15
		} else {
			c.TraceFrames = 1 << 17
		}
	}
	if c.Replications == 0 {
		if c.Quick {
			c.Replications = 200
		} else {
			c.Replications = 1000
		}
	}
	return c
}

// Lab caches shared artifacts across experiments.
type Lab struct {
	cfg Config

	once struct {
		intra, inter, iModel, gopModel, synTrace sync.Once
	}
	errIntra, errInter, errIModel, errGOP, errSyn error

	intraTrace *trace.Trace // intraframe-only encoding (Figs. 1-8)
	interTrace *trace.Trace // I-B-P encoding (Table 1, Figs. 9-13, queueing)
	iModel     *core.Model  // unified model of the intraframe record
	gopModel   *core.GOPModel
	synTrace   *trace.Trace // long synthetic composite trace (Figs. 9-13)
}

// NewLab creates a lab with the given configuration.
func NewLab(cfg Config) *Lab { return &Lab{cfg: cfg.withDefaults()} }

// IntraTrace returns the intraframe-only synthetic empirical record, the
// analogue of the paper's first (hardware intraframe) encoding that Figs.
// 1-8 are computed from.
func (l *Lab) IntraTrace() (*trace.Trace, error) {
	l.once.intra.Do(func() {
		cfg := mpegtrace.Config{
			Frames: l.cfg.TraceFrames,
			Seed:   l.cfg.Seed + 1,
			GOP:    []trace.FrameType{trace.FrameI},
			// Intraframe coding has no I/P/B size alternation.
			IScale: 1.0, PScale: 1.0, BScale: 1.0,
		}
		l.intraTrace, l.errIntra = mpegtrace.Generate(cfg)
	})
	return l.intraTrace, l.errIntra
}

// InterTrace returns the I-B-P synthetic empirical record, the analogue of
// the paper's PVRG re-encoding (Table 1, Figs. 9-13 and Section 4).
func (l *Lab) InterTrace() (*trace.Trace, error) {
	l.once.inter.Do(func() {
		l.interTrace, l.errInter = mpegtrace.Generate(mpegtrace.Config{
			Frames: l.cfg.TraceFrames,
			Seed:   l.cfg.Seed + 2,
		})
	})
	return l.interTrace, l.errInter
}

// IModel returns the unified model fitted to the intraframe record.
func (l *Lab) IModel() (*core.Model, error) {
	l.once.iModel.Do(func() {
		tr, err := l.IntraTrace()
		if err != nil {
			l.errIModel = err
			return
		}
		l.iModel, l.errIModel = core.Fit(tr.Sizes, core.FitOptions{Seed: l.cfg.Seed + 3})
	})
	return l.iModel, l.errIModel
}

// GOPModel returns the composite I-B-P model fitted to the interframe record.
func (l *Lab) GOPModel() (*core.GOPModel, error) {
	l.once.gopModel.Do(func() {
		tr, err := l.InterTrace()
		if err != nil {
			l.errGOP = err
			return
		}
		l.gopModel, l.errGOP = core.FitGOP(tr, core.FitOptions{Seed: l.cfg.Seed + 4})
	})
	return l.gopModel, l.errGOP
}

// SynTrace returns a long synthetic composite trace generated from the
// fitted GOP model, used for the Figs. 9-13 comparisons.
func (l *Lab) SynTrace() (*trace.Trace, error) {
	l.once.synTrace.Do(func() {
		g, err := l.GOPModel()
		if err != nil {
			l.errSyn = err
			return
		}
		n := l.cfg.TraceFrames
		l.synTrace, l.errSyn = g.Generate(n, l.cfg.Seed+5, core.BackendDaviesHarte)
	})
	return l.synTrace, l.errSyn
}

// ---------------------------------------------------------------------------
// Table 1

// Table1 reports the parameters of the synthetic empirical sequence next to
// the paper's values.
func (l *Lab) Table1() (*Result, error) {
	tr, err := l.InterTrace()
	if err != nil {
		return nil, err
	}
	s := tr.Summarize()
	r := &Result{ID: "table1", Title: "Parameters of compressed empirical video sequence"}
	r.AddNote("coder: synthetic MPEG-1 source simulator (paper: MPEG-1, PVRG 1.1)")
	r.AddNote("frames: %d (paper: 238,626; configurable via TraceFrames)", s.Frames)
	r.AddNote("duration: %.1f s at %.0f fps (paper: 7,956 s at 30 fps)", s.Duration, s.FrameRate)
	r.AddNote("GOP length: %d (paper: I period 12)", s.GOPLength)
	r.AddNote("mean %.0f bytes/frame, std %.0f, peak/mean %.1f", s.MeanBytes, s.StdBytes, s.PeakToMean)
	r.AddNote("frame mix: I=%d P=%d B=%d", s.TypeCounts[trace.FrameI], s.TypeCounts[trace.FrameP], s.TypeCounts[trace.FrameB])
	return r, nil
}

// ---------------------------------------------------------------------------
// Fig. 1: marginal histogram

// Fig1 regenerates the empirical bytes-per-frame histogram.
func (l *Lab) Fig1() (*Result, error) {
	tr, err := l.IntraTrace()
	if err != nil {
		return nil, err
	}
	hi := stats.Max(tr.Sizes) * 1.001
	h := stats.NewHistogram(tr.Sizes, 0, hi, 100)
	r := &Result{ID: "fig1", Title: "Empirical distribution of bytes/frame"}
	xs := make([]float64, len(h.Counts))
	for i := range xs {
		xs[i] = h.BinCenter(i)
	}
	r.Series = append(r.Series, Series{Name: "empirical", X: xs, Y: h.Frequencies()})
	r.AddNote("unimodal with a long right tail, as in the paper's Fig. 1")
	return r, nil
}

// ---------------------------------------------------------------------------
// Fig. 2: transform h(x)

// Fig2 tabulates the histogram-inversion transform h over [-6, 6].
func (l *Lab) Fig2() (*Result, error) {
	m, err := l.IModel()
	if err != nil {
		return nil, err
	}
	xs, hs := m.Transform.Table(-6, 6, 240)
	r := &Result{ID: "fig2", Title: "Transform h(x) from N(0,1) to the empirical marginal"}
	r.Series = append(r.Series, Series{Name: "h", X: xs, Y: hs})
	r.AddNote("monotone, convex in the upper tail (long-tailed marginal), as in Fig. 2")
	return r, nil
}

// ---------------------------------------------------------------------------
// Fig. 3: variance-time plot

// Fig3 regenerates the variance-time plot and its Hurst estimate.
func (l *Lab) Fig3() (*Result, error) {
	m, err := l.IModel()
	if err != nil {
		return nil, err
	}
	est := m.VT
	r := &Result{ID: "fig3", Title: "Variance-time plot"}
	r.Series = append(r.Series, Series{Name: "log10 var(X^(m)) vs log10 m", X: est.X, Y: est.Y})
	fit := Series{Name: "least-squares fit"}
	for _, x := range est.X {
		fit.X = append(fit.X, x)
		fit.Y = append(fit.Y, est.Slope*x+est.Intercept)
	}
	r.Series = append(r.Series, fit)
	r.AddNote("slope %.4f -> H = %.3f (paper: slope -0.2234 -> H = 0.89)", est.Slope, est.H)
	return r, nil
}

// ---------------------------------------------------------------------------
// Fig. 4: R/S pox diagram

// Fig4 regenerates the R/S pox diagram and its Hurst estimate.
func (l *Lab) Fig4() (*Result, error) {
	m, err := l.IModel()
	if err != nil {
		return nil, err
	}
	est := m.RS
	r := &Result{ID: "fig4", Title: "Pox diagram of R/S"}
	r.Series = append(r.Series, Series{Name: "log10 R/S vs log10 n", X: est.X, Y: est.Y})
	fit := Series{Name: "least-squares fit"}
	for _, x := range est.X {
		fit.X = append(fit.X, x)
		fit.Y = append(fit.Y, est.Slope*x+est.Intercept)
	}
	r.Series = append(r.Series, fit)
	r.AddNote("slope -> H = %.3f (paper: 0.92); combined decision H = %.3f (paper: 0.9)", est.H, m.H)
	return r, nil
}

// ---------------------------------------------------------------------------
// Fig. 5: empirical ACF

// Fig5 regenerates the empirical autocorrelation (lags 1-500) with its knee.
func (l *Lab) Fig5() (*Result, error) {
	tr, err := l.IntraTrace()
	if err != nil {
		return nil, err
	}
	maxLag := 500
	a := stats.Autocorrelation(tr.Sizes, maxLag)
	r := &Result{ID: "fig5", Title: "Estimated autocorrelation of the empirical trace"}
	r.Series = append(r.Series, acfSeries("empirical", a, 1, maxLag))
	m, err := l.IModel()
	if err == nil {
		r.AddNote("knee detected at lag %d (paper: 60-80)", m.Foreground.Knee)
	}
	return r, nil
}

// acfSeries converts an ACF slice (indexed by lag) to a Series over
// [lo, hi].
func acfSeries(name string, a []float64, lo, hi int) Series {
	s := Series{Name: name}
	for k := lo; k <= hi && k < len(a); k++ {
		s.X = append(s.X, float64(k))
		s.Y = append(s.Y, a[k])
	}
	return s
}

// ---------------------------------------------------------------------------
// Fig. 6: composite ACF fit

// Fig6 regenerates the two-component fit of the empirical ACF.
func (l *Lab) Fig6() (*Result, error) {
	tr, err := l.IntraTrace()
	if err != nil {
		return nil, err
	}
	m, err := l.IModel()
	if err != nil {
		return nil, err
	}
	maxLag := 500
	emp := stats.Autocorrelation(tr.Sizes, maxLag)
	r := &Result{ID: "fig6", Title: "Autocorrelation fitting result"}
	r.Series = append(r.Series, acfSeries("empirical", emp, 1, maxLag))
	expo := Series{Name: "exponential component"}
	pow := Series{Name: "power-law component"}
	for k := 1; k <= maxLag; k++ {
		expo.X = append(expo.X, float64(k))
		expo.Y = append(expo.Y, math.Exp(-m.Foreground.Rates[0]*float64(k)))
		pow.X = append(pow.X, float64(k))
		pow.Y = append(pow.Y, m.Foreground.L*math.Pow(float64(k), -m.Foreground.Beta))
	}
	r.Series = append(r.Series, expo, pow)
	r.AddNote("fit: exp(-%.5f k) below knee %d, %.4f k^-%.3f beyond (paper: exp(-0.00565k), 1.5947 k^-0.2, knee 60)",
		m.Foreground.Rates[0], m.Foreground.Knee, m.Foreground.L, m.Foreground.Beta)
	return r, nil
}

// ---------------------------------------------------------------------------
// Fig. 7: attenuation illustration

// Fig7 shows the ACF of the background X (target r-hat) against the ACF of
// the transformed foreground Y = h(X) before compensation.
func (l *Lab) Fig7() (*Result, error) {
	m, err := l.IModel()
	if err != nil {
		return nil, err
	}
	maxLag := 500
	pathLen := 1500
	reps := 20
	if l.cfg.Quick {
		pathLen, reps, maxLag = 600, 8, 200
	}
	plan, err := hosking.CachedPlan(m.Foreground, pathLen)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "fig7", Title: "ACFs of X and Y = h(X): the attenuation factor"}
	xACF, yACF, err := pooledTransformACF(plan, m, pathLen, reps, maxLag, l.cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	r.Series = append(r.Series,
		acfSeries("background X (target r-hat)", xACF, 1, maxLag),
		acfSeries("foreground Y = h(X)", yACF, 1, maxLag),
	)
	r.AddNote("measured attenuation a = %.3f (paper: 0.94)", m.Attenuation)
	return r, nil
}

// pooledTransformACF pools background and foreground ACFs over replications.
func pooledTransformACF(plan *hosking.Plan, m *core.Model, pathLen, reps, maxLag int, seed uint64) (xACF, yACF []float64, err error) {
	r := rng.New(seed)
	xa := make([]float64, maxLag+1)
	ya := make([]float64, maxLag+1)
	meanY := m.Marginal.Mean()
	for rep := 0; rep < reps; rep++ {
		x := plan.Path(r, pathLen)
		y := m.Transform.ApplySlice(x)
		ax := stats.AutocovarianceKnownMean(x, 0, maxLag)
		ay := stats.AutocovarianceKnownMean(y, meanY, maxLag)
		for k := range xa {
			xa[k] += ax[k]
			ya[k] += ay[k]
		}
	}
	xACF = make([]float64, maxLag+1)
	yACF = make([]float64, maxLag+1)
	for k := range xa {
		xACF[k] = xa[k] / xa[0]
		yACF[k] = ya[k] / ya[0]
	}
	return xACF, yACF, nil
}

// ---------------------------------------------------------------------------
// Fig. 8: final compensated match

// Fig8 compares the empirical ACF with the foreground ACF of the fully
// compensated model (Step 4 output) — the unified approach's headline match.
func (l *Lab) Fig8() (*Result, error) {
	tr, err := l.IntraTrace()
	if err != nil {
		return nil, err
	}
	m, err := l.IModel()
	if err != nil {
		return nil, err
	}
	maxLag := 500
	pathLen := 1500
	reps := 20
	if l.cfg.Quick {
		pathLen, reps, maxLag = 600, 8, 200
	}
	plan, err := m.Plan(pathLen)
	if err != nil {
		return nil, err
	}
	_, yACF, err := pooledTransformACF(plan, m, pathLen, reps, maxLag, l.cfg.Seed+8)
	if err != nil {
		return nil, err
	}
	emp := stats.Autocorrelation(tr.Sizes, maxLag)
	r := &Result{ID: "fig8", Title: "Empirical vs final simulated autocorrelation"}
	r.Series = append(r.Series,
		acfSeries("empirical", emp, 1, maxLag),
		acfSeries("simulation (compensated model)", yACF, 1, maxLag),
	)
	// Quantify the match over the LRD regime.
	var sse float64
	n := 0
	for k := m.Foreground.Knee; k <= maxLag && k < len(emp); k++ {
		d := emp[k] - yACF[k]
		sse += d * d
		n++
	}
	r.AddNote("RMS ACF error beyond the knee: %.4f over %d lags", math.Sqrt(sse/float64(n)), n)
	return r, nil
}

// ---------------------------------------------------------------------------
// Figs. 9-11: composite I-B-P ACF comparison

// Fig9to11 compares the full-stream (I-B-P) autocorrelation of the synthetic
// composite trace against the empirical interframe trace over lags 1-490.
func (l *Lab) Fig9to11() (*Result, error) {
	emp, err := l.InterTrace()
	if err != nil {
		return nil, err
	}
	syn, err := l.SynTrace()
	if err != nil {
		return nil, err
	}
	maxLag := 490
	if l.cfg.Quick {
		maxLag = 150
	}
	ea := stats.Autocorrelation(emp.Sizes, maxLag)
	sa := stats.Autocorrelation(syn.Sizes, maxLag)
	r := &Result{ID: "fig9to11", Title: "Composite I-B-P autocorrelation: simulation vs empirical (lags 1-490)"}
	r.Series = append(r.Series,
		acfSeries("empirical trace", ea, 1, maxLag),
		acfSeries("simulation", sa, 1, maxLag),
	)
	// GOP oscillation check (both series must peak at multiples of 12).
	r.AddNote("GOP-periodic oscillation: empirical acf[12]=%.3f vs acf[6]=%.3f; synthetic acf[12]=%.3f vs acf[6]=%.3f",
		ea[12], ea[6], sa[12], sa[6])
	return r, nil
}

// ---------------------------------------------------------------------------
// Fig. 12: histogram comparison

// Fig12 compares synthetic and empirical marginal histograms.
func (l *Lab) Fig12() (*Result, error) {
	emp, err := l.InterTrace()
	if err != nil {
		return nil, err
	}
	syn, err := l.SynTrace()
	if err != nil {
		return nil, err
	}
	hi := math.Max(stats.Max(emp.Sizes), stats.Max(syn.Sizes)) * 1.001
	he := stats.NewHistogram(emp.Sizes, 0, hi, 80)
	hs := stats.NewHistogram(syn.Sizes, 0, hi, 80)
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = he.BinCenter(i)
	}
	r := &Result{ID: "fig12", Title: "Histograms: simulation vs empirical"}
	r.Series = append(r.Series,
		Series{Name: "empirical", X: xs, Y: he.Frequencies()},
		Series{Name: "simulation", X: xs, Y: hs.Frequencies()},
	)
	// Total-variation distance between the binned marginals.
	var tv float64
	fe, fs := he.Frequencies(), hs.Frequencies()
	for i := range fe {
		tv += math.Abs(fe[i] - fs[i])
	}
	r.AddNote("total-variation distance between binned marginals: %.4f", tv/2)
	return r, nil
}

// ---------------------------------------------------------------------------
// Fig. 13: Q-Q plot

// Fig13 regenerates the Q-Q comparison of the marginals.
func (l *Lab) Fig13() (*Result, error) {
	emp, err := l.InterTrace()
	if err != nil {
		return nil, err
	}
	syn, err := l.SynTrace()
	if err != nil {
		return nil, err
	}
	qe, qs, err := stats.QQPairs(emp.Sizes, syn.Sizes, 100)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "fig13", Title: "Q-Q plot: simulation vs empirical marginals"}
	r.Series = append(r.Series, Series{Name: "quantile pairs", X: qe, Y: qs})
	// Measure departure from the diagonal in relative terms over the body.
	var rel float64
	n := 0
	for i := 10; i < 90; i++ {
		if qe[i] > 0 {
			rel += math.Abs(qs[i]-qe[i]) / qe[i]
			n++
		}
	}
	r.AddNote("mean relative quantile deviation (10th-90th pct): %.3f", rel/float64(n))
	return r, nil
}

// ---------------------------------------------------------------------------
// Queueing experiments (Section 4)

// queueSetup bundles what the Section 4 experiments need: the exact plan,
// or with Config.FastPath the truncation in its place.
type queueSetup struct {
	model    *core.Model
	plan     *hosking.Plan
	fast     *hosking.Truncated
	meanRate float64
}

// newQueueSetup builds a background plan long enough for the horizon, or
// with FastPath takes the shared truncation core derives for that horizon:
// the frozen AR row generates past any plan length, so no exact plan is
// built.
func (l *Lab) newQueueSetup(horizon int) (*queueSetup, error) {
	m, err := l.IModel()
	if err != nil {
		return nil, err
	}
	qs := &queueSetup{model: m, meanRate: m.MeanRate()}
	if l.cfg.FastPath {
		if qs.fast, err = core.TruncatedPlanForCtx(context.Background(), m.Background, horizon, 0); err != nil {
			return nil, fmt.Errorf("experiments: fast path: %w", err)
		}
	} else if qs.plan, err = m.Plan(horizon); err != nil {
		return nil, err
	}
	return qs, nil
}

// fastNote records the fast-path parameters on an exhibit.
func (r *Result) fastNote(tr *hosking.Truncated) {
	if tr == nil {
		return
	}
	r.AddNote("fast path: truncated AR(%d), max induced ACF error %.3g over the plan window",
		tr.Order(), tr.MaxACFError())
}

// Fig14 regenerates the normalized-variance valley over the twisted mean m*
// (k=500, utilization 0.2, normalized buffer 25, N replications).
func (l *Lab) Fig14() (*Result, error) {
	horizon := 500
	twists := []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0}
	if l.cfg.Quick {
		horizon = 200
		twists = []float64{1.0, 2.0, 3.0, 4.0}
	}
	qs, err := l.newQueueSetup(horizon)
	if err != nil {
		return nil, err
	}
	service, err := queue.UtilizationService(qs.meanRate, 0.2)
	if err != nil {
		return nil, err
	}
	bufAbs := 25 * qs.meanRate // normalized buffer size 25
	cfg := impsample.Config{
		Plan:         qs.plan,
		FastPlan:     qs.fast,
		Transform:    qs.model.Transform,
		Service:      service,
		Buffer:       bufAbs,
		Horizon:      horizon,
		Replications: l.cfg.Replications,
		Seed:         l.cfg.Seed + 14,
	}
	results, best, err := impsample.SearchTwist(cfg, twists)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "fig14", Title: "Normalized variance of the IS estimator vs twisted mean m*"}
	s := Series{Name: "normalized variance"}
	maxFinite := 0.0
	for _, tr := range results {
		if !math.IsInf(tr.Result.NormVar, 1) && tr.Result.NormVar > maxFinite {
			maxFinite = tr.Result.NormVar
		}
	}
	for _, tr := range results {
		nv := tr.Result.NormVar
		if math.IsInf(nv, 1) {
			nv = maxFinite * 2 // plot placeholder for degenerate twists
		}
		s.X = append(s.X, tr.Twist)
		s.Y = append(s.Y, nv)
	}
	r.Series = append(r.Series, s)
	if best >= 0 {
		vr := impsample.VarianceReduction(results[best].Result)
		r.AddNote("valley at m* = %.1f with P = %.3g, variance reduction %.0fx (paper: m* = 3.2, ~1000x)",
			results[best].Twist, results[best].Result.P, vr)
	}
	r.fastNote(qs.fast)
	return r, nil
}

// Fig15 regenerates the transient overflow probability for empty vs full
// initial buffer (b = 200 normalized, utilization 0.4).
func (l *Lab) Fig15() (*Result, error) {
	horizon := 2000
	checkpoints := []int{100, 200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000}
	if l.cfg.Quick {
		horizon = 400
		checkpoints = []int{50, 100, 200, 400}
	}
	qs, err := l.newQueueSetup(horizon)
	if err != nil {
		return nil, err
	}
	service, err := queue.UtilizationService(qs.meanRate, 0.4)
	if err != nil {
		return nil, err
	}
	bufAbs := 200 * qs.meanRate
	base := impsample.Config{
		Plan:         qs.plan,
		FastPlan:     qs.fast,
		Transform:    qs.model.Transform,
		Service:      service,
		Buffer:       bufAbs,
		Twist:        2.0,
		Replications: l.cfg.Replications,
		Seed:         l.cfg.Seed + 15,
	}
	empty, err := impsample.EstimateTransient(base, checkpoints)
	if err != nil {
		return nil, err
	}
	fullCfg := base
	fullCfg.InitialOccupancy = bufAbs
	fullCfg.Seed = l.cfg.Seed + 16
	full, err := impsample.EstimateTransient(fullCfg, checkpoints)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "fig15", Title: "Transient buffer overflow probability: empty vs full initial buffer"}
	se := Series{Name: "initial zero buffer occupation (log10 P)"}
	sf := Series{Name: "initial full buffer occupation (log10 P)"}
	for j, k := range checkpoints {
		se.X = append(se.X, float64(k))
		se.Y = append(se.Y, log10OrFloor(empty[j].P))
		sf.X = append(sf.X, float64(k))
		sf.Y = append(sf.Y, log10OrFloor(full[j].P))
	}
	r.Series = append(r.Series, se, sf)
	r.AddNote("full-buffer start converges from above, empty-buffer from below, meeting at steady state (paper Fig. 15)")
	r.fastNote(qs.fast)
	return r, nil
}

// log10OrFloor protects the log of a zero estimate.
func log10OrFloor(p float64) float64 {
	if p <= 0 {
		return -12
	}
	return math.Log10(p)
}

// Fig16 regenerates overflow probability vs normalized buffer size for
// utilizations 0.2/0.4/0.6/0.8, both model-driven (IS) and trace-driven.
func (l *Lab) Fig16() (*Result, error) {
	buffers := []float64{25, 50, 75, 100, 150, 200, 250}
	utils := []float64{0.2, 0.4, 0.6, 0.8}
	twists := map[float64]float64{0.2: 3.2, 0.4: 2.4, 0.6: 1.6, 0.8: 0.8}
	if l.cfg.Quick {
		buffers = []float64{25, 75, 150}
		utils = []float64{0.4, 0.8}
	} else if l.cfg.FastPath {
		// Paper-scale extension: horizons past the exact-plan limit are
		// exactly what the O(p) fast path affords.
		buffers = append(buffers, 375, 500)
	}
	maxHorizon := int(10 * buffers[len(buffers)-1])
	qs, err := l.newQueueSetup(maxHorizon)
	if err != nil {
		return nil, err
	}
	emp, err := l.IntraTrace()
	if err != nil {
		return nil, err
	}
	empMean := stats.Mean(emp.Sizes)

	r := &Result{ID: "fig16", Title: "Overflow probability vs buffer size (k = 10b)"}
	for _, util := range utils {
		service, err := queue.UtilizationService(qs.meanRate, util)
		if err != nil {
			return nil, err
		}
		sim := Series{Name: fmt.Sprintf("simulation util=%.1f (log10 P)", util)}
		for _, b := range buffers {
			cfg := impsample.Config{
				Plan:         qs.plan,
				FastPlan:     qs.fast,
				Transform:    qs.model.Transform,
				Service:      service,
				Buffer:       b * qs.meanRate,
				Horizon:      int(10 * b),
				Twist:        twists[util],
				Replications: l.cfg.Replications,
				Seed:         l.cfg.Seed + 160 + uint64(util*10),
			}
			res, err := impsample.Estimate(cfg)
			if err != nil {
				return nil, err
			}
			sim.X = append(sim.X, b)
			sim.Y = append(sim.Y, log10OrFloor(res.P))
		}
		r.Series = append(r.Series, sim)

		// Trace-driven steady-state estimate (one long replication).
		empService := empMean / util
		tr := Series{Name: fmt.Sprintf("data trace util=%.1f (log10 P)", util)}
		for _, b := range buffers {
			p, err := queue.TraceOverflow(emp.Sizes, empService, b*empMean, 1000)
			if err != nil {
				return nil, err
			}
			tr.X = append(tr.X, b)
			tr.Y = append(tr.Y, log10OrFloor(p))
		}
		r.Series = append(r.Series, tr)
	}
	r.AddNote("loss decays slower than exponentially in b; higher utilization shifts curves up (paper Fig. 16)")
	r.AddNote("trace-driven curves use one long replication, so they diverge from the model at low utilization (as the paper observes)")
	r.fastNote(qs.fast)
	return r, nil
}

// Fig17 compares overflow probability under three models at utilization 0.6:
// SRD-only, SRD+LRD (the unified model), and fGn-only, plus the empirical
// trace.
func (l *Lab) Fig17() (*Result, error) {
	buffers := []float64{25, 50, 75, 100, 150, 200, 250}
	if l.cfg.Quick {
		buffers = []float64{25, 75, 150}
	} else if l.cfg.FastPath {
		buffers = append(buffers, 375, 500)
	}
	util := 0.6
	maxHorizon := int(10 * buffers[len(buffers)-1])
	qs, err := l.newQueueSetup(maxHorizon)
	if err != nil {
		return nil, err
	}
	m := qs.model
	service, err := queue.UtilizationService(qs.meanRate, util)
	if err != nil {
		return nil, err
	}

	srdBG, err := baseline.SRDOnlyBackground(m.Foreground.Rates[0], m.Attenuation, m.Foreground.Knee)
	if err != nil {
		return nil, err
	}
	fgnBG, err := baseline.FGNOnlyBackground(m.H)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		bg   acf.Model
		plan *hosking.Plan
		fast *hosking.Truncated
	}{
		{"SRD+LRD (unified model)", nil, qs.plan, qs.fast},
		{"SRD only", srdBG, nil, nil},
		{"fGn background only", fgnBG, nil, nil},
	}
	for vi := 1; vi < len(variants); vi++ {
		v := &variants[vi]
		if !l.cfg.FastPath {
			if v.plan, err = hosking.CachedPlan(v.bg, maxHorizon); err != nil {
				return nil, err
			}
		} else if v.fast, err = core.TruncatedPlanForCtx(context.Background(), v.bg, maxHorizon, 0); err != nil {
			return nil, fmt.Errorf("experiments: fast path (%s): %w", v.name, err)
		}
	}
	r := &Result{ID: "fig17", Title: "Overflow probability vs buffer size for four cases (util 0.6)"}
	for vi, v := range variants {
		s := Series{Name: v.name + " (log10 P)"}
		for _, b := range buffers {
			cfg := impsample.Config{
				Plan:         v.plan,
				FastPlan:     v.fast,
				Transform:    m.Transform,
				Service:      service,
				Buffer:       b * qs.meanRate,
				Horizon:      int(10 * b),
				Twist:        1.6,
				Replications: l.cfg.Replications,
				Seed:         l.cfg.Seed + 170 + uint64(vi),
			}
			res, err := impsample.Estimate(cfg)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, b)
			s.Y = append(s.Y, log10OrFloor(res.P))
		}
		r.Series = append(r.Series, s)
	}
	// Empirical trace curve.
	emp, err := l.IntraTrace()
	if err != nil {
		return nil, err
	}
	empMean := stats.Mean(emp.Sizes)
	tr := Series{Name: "empirical trace (log10 P)"}
	for _, b := range buffers {
		p, err := queue.TraceOverflow(emp.Sizes, empMean/util, b*empMean, 1000)
		if err != nil {
			return nil, err
		}
		tr.X = append(tr.X, b)
		tr.Y = append(tr.Y, log10OrFloor(p))
	}
	r.Series = append(r.Series, tr)
	r.AddNote("expected ordering at large b: SRD-only decays fastest; SRD+LRD tracks the trace; fGn-only underestimates loss at small b (paper Fig. 17)")
	r.fastNote(qs.fast)
	return r, nil
}

// ExtNorros is an extension exhibit (not in the paper): it compares the
// paper's importance-sampling overflow estimates against the closed-form
// fractional-Brownian approximation of Norros (the paper's ref. [23]),
// parameterized from the same fitted model. The two should agree on the
// Weibull decay exponent 2-2H even where absolute levels differ.
func (l *Lab) ExtNorros() (*Result, error) {
	buffers := []float64{25, 50, 75, 100, 150, 200, 250}
	if l.cfg.Quick {
		buffers = []float64{25, 75, 150}
	}
	util := 0.6
	maxHorizon := int(10 * buffers[len(buffers)-1])
	qs, err := l.newQueueSetup(maxHorizon)
	if err != nil {
		return nil, err
	}
	m := qs.model
	service, err := queue.UtilizationService(qs.meanRate, util)
	if err != nil {
		return nil, err
	}
	tr, err := l.IntraTrace()
	if err != nil {
		return nil, err
	}
	_, variance := stats.MeanVar(tr.Sizes)
	params, err := norros.FromComposite(m.Marginal, variance, m.Foreground)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "extnorros", Title: "Extension: IS simulation vs Norros fBm approximation (util 0.6)"}
	sim := Series{Name: "IS simulation (log10 P)"}
	ana := Series{Name: "Norros phi-form (log10 P)"}
	for _, b := range buffers {
		cfg := impsample.Config{
			Plan:         qs.plan,
			FastPlan:     qs.fast,
			Transform:    m.Transform,
			Service:      service,
			Buffer:       b * qs.meanRate,
			Horizon:      int(10 * b),
			Twist:        1.6,
			Replications: l.cfg.Replications,
			Seed:         l.cfg.Seed + 180,
		}
		res, err := impsample.Estimate(cfg)
		if err != nil {
			return nil, err
		}
		phi, _, err := params.OverflowProbability(service, b*qs.meanRate)
		if err != nil {
			return nil, err
		}
		sim.X = append(sim.X, b)
		sim.Y = append(sim.Y, log10OrFloor(res.P))
		ana.X = append(ana.X, b)
		ana.Y = append(ana.Y, log10OrFloor(phi))
	}
	r.Series = append(r.Series, sim, ana)
	r.AddNote("fBm params: m=%.0f, v=%.3g, H=%.3f; both curves decay as b^(2-2H)=b^%.2f in log space",
		params.MeanRate, params.VarCoeff, params.H, 2-2*params.H)
	return r, nil
}

// ---------------------------------------------------------------------------
// Suite

// entry pairs an exhibit ID with its generator.
type entry struct {
	id  string
	run func() (*Result, error)
}

// entries lists every exhibit in paper order.
func (l *Lab) entries() []entry {
	return []entry{
		{"table1", l.Table1},
		{"fig1", l.Fig1},
		{"fig2", l.Fig2},
		{"fig3", l.Fig3},
		{"fig4", l.Fig4},
		{"fig5", l.Fig5},
		{"fig6", l.Fig6},
		{"fig7", l.Fig7},
		{"fig8", l.Fig8},
		{"fig9to11", l.Fig9to11},
		{"fig12", l.Fig12},
		{"fig13", l.Fig13},
		{"fig14", l.Fig14},
		{"fig15", l.Fig15},
		{"fig16", l.Fig16},
		{"fig17", l.Fig17},
		{"extnorros", l.ExtNorros},
	}
}

// IDs returns the identifiers of all exhibits, in paper order.
func (l *Lab) IDs() []string {
	es := l.entries()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.id
	}
	return out
}

// Run regenerates a single exhibit by ID.
func (l *Lab) Run(id string) (*Result, error) {
	for _, e := range l.entries() {
		if e.id == id {
			return e.run()
		}
	}
	ids := l.IDs()
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown exhibit %q (known: %v)", id, ids)
}

// All regenerates every exhibit, stopping at the first error.
func (l *Lab) All() ([]*Result, error) {
	var out []*Result
	for _, e := range l.entries() {
		res, err := e.run()
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, res)
	}
	return out, nil
}
