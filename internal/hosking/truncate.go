// Truncated-AR(p) fast generation. Hosking's exact method regresses every
// step on its full history, which makes path generation O(n^2). For the
// long-range-dependent models of the paper the partial correlations
// phi_{k,k} decay like a power law, so past some order p the remaining
// coefficients move the conditional law by less than any tolerance of
// interest. Freezing the Durbin–Levinson coefficient row at order p turns
// the generator into a stationary AR(p): steps beyond p cost O(p) each and
// the process can be extended to ANY length — including the paper's full
// 238,626-frame trace — from a plan of moderate length.
//
// The approximation is quantified, not assumed: the AR(p) model implied by
// the frozen row reproduces the target autocorrelation exactly up to lag p
// (the row solves the Yule–Walker equations), and its extension beyond lag
// p is computed and compared against the plan's table. The measured error
// is exposed through MaxACFError — and enforced when TruncateOptions.ACFTol
// is set — so callers (core.Fit, the experiment pipelines) can choose exact
// vs. fast per use with a known ACF-error figure.
package hosking

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"vbrsim/internal/acf"
	"vbrsim/internal/rng"
)

// ErrNoTruncation is returned when no truncation order within the plan
// satisfies the requested tolerance (the partial correlations have not
// decayed enough at the plan length).
var ErrNoTruncation = errors.New("hosking: no truncation order within plan meets the tolerance")

// TruncateOptions tunes truncation. The zero value selects defaults.
type TruncateOptions struct {
	// Tol is the partial-correlation cutoff: the truncation order is placed
	// after the last lag whose |phi_{k,k}| reaches Tol. Default 1e-3.
	Tol float64
	// Run is how many consecutive lags must stay below Tol before the tail
	// is considered dead; it also reserves that many lags past the order
	// for the ACF-error measurement. Default 32.
	Run int
	// ACFTol, when positive, additionally bounds the induced
	// autocorrelation error: the order is advanced until the max over plan
	// lags of |AR(p)-implied ACF - target ACF| is at most ACFTol, and
	// Truncate fails if no usable order achieves it. When 0 the error is
	// only measured and reported via MaxACFError. Long-memory targets lose
	// their power-law tail under ANY finite AR order, so tight absolute
	// bounds over long windows force the order toward the plan length;
	// leave this 0 unless the long-lag ACF itself is the quantity under
	// study.
	ACFTol float64
}

// Truncated is a frozen AR(p) view of a plan. Like a Plan it is immutable
// and safe for concurrent use. Its conditional quantities agree exactly
// with the plan for steps k < p and approximate them (within the measured
// ACF error) for k >= p, where they become time-invariant.
//
// It keeps only the O(p^2) prefix of the plan it reads, not the plan: a
// paper-model truncation (p = 361 of a 4096-step plan) holds about 0.5 MiB
// where the plan holds 64 MiB. The plan cache (PlanCache.TruncatedCtx, and
// core.TruncatedPlanForCtx above it) builds it without the plan
// (scanTruncate) and hands every caller of one model the same *Truncated;
// Plan.Truncate copies the prefix out of a plan the caller already holds,
// bit for bit the same.
type Truncated struct {
	head   *Plan // the plan's first p+1 steps: warm-up rows, v, phiSum and r up to lag p
	order  int
	row    []float64 // frozen reversed row p: row[i] = phi_{p,p-i} (head's row p)
	v      float64   // innovation variance v_p
	sqrtV  float64
	phiSum float64 // sum of the frozen row
	tol    float64
	maxErr float64 // measured max |implied ACF - target ACF| over lags (p, plan length)

	derived memo // state other packages precompute from this truncation

	// Idle lockstep arenas (laneArena), lent to FillLockstep groups: the
	// first lockstep fill takes one, never an open. A mutex and a slice
	// rather than a sync.Pool, whose race-build drops would allocate in
	// steady state.
	arenaMu sync.Mutex
	arenas  []*laneArena
}

// withDefaults fills the zero fields, so equivalent options share one cache
// key. Defaulted options are never the zero value, which keys plans in the
// cache.
func (o TruncateOptions) withDefaults() TruncateOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-3
	}
	if o.Run <= 0 {
		o.Run = 32
	}
	if o.ACFTol < 0 {
		o.ACFTol = 0
	}
	return o
}

// Truncate selects the truncation order and returns the fast generation
// view. The order is placed after the last partial correlation with
// magnitude >= Tol (requiring at least Run quiet lags after it inside the
// plan); when ACFTol is set the order is then advanced until the measured
// induced ACF error is within that bound.
//
// Each call builds a new *Truncated from a plan the caller already holds.
// Programs that want one shared truncation per model, and the state hung off
// it through Derived, take it from the plan cache (PlanCache.TruncatedCtx),
// which builds the same bits without the plan.
func (p *Plan) Truncate(opt TruncateOptions) (*Truncated, error) {
	return selectTruncation(p.r, p.PartialCorr,
		func(m int) (*Plan, error) { return p.prefix(m), nil }, opt.withDefaults())
}

// scanTruncate builds the truncation of the length-n plan of model under
// defaulted options without building that plan: bit for bit what
// NewPlan(model, n) followed by Truncate(opt) returns, errors included.
// Pass 1 runs the Durbin–Levinson kernel over two rolling rows and keeps
// only the partial correlations, which place the order; pass 2 rebuilds
// the first order+1 steps with the same kernel. Durbin–Levinson is
// prefix-consistent, so that short plan is the long plan's prefix. Memory
// is O(n + p^2) where the plan would take O(n^2).
func scanTruncate(ctx context.Context, model acf.Model, n int, opt TruncateOptions) (*Truncated, error) {
	r, err := planTable(model, n)
	if err != nil {
		return nil, err
	}
	pc := make([]float64, n) // pc[k] = phi_{k,k}
	roll := [2][]float64{make([]float64, n-1), make([]float64, n-1)}
	err = durbinLevinson(ctx, r, 0,
		func(k int) (prev, row []float64) { return roll[(k-1)&1][:k-1], roll[k&1][:k] },
		func(k int, phiKK, _, _ float64) { pc[k] = phiKK })
	if err != nil {
		return nil, err
	}
	return selectTruncation(r, func(k int) float64 { return pc[k] },
		func(m int) (*Plan, error) { return NewPlanOptsCtx(ctx, tableModel(r[:m]), m, PlanOptions{}) }, opt)
}

// selectTruncation places the order for defaulted options from the
// partial correlations partialCorr(k) of the plan over the autocorrelation
// table r, and freezes row p of head(p+1), a plan of the first p+1 steps
// that owns its tables.
func selectTruncation(r []float64, partialCorr func(k int) float64, head func(m int) (*Plan, error), opt TruncateOptions) (*Truncated, error) {
	n := len(r)
	tol, run := opt.Tol, opt.Run
	maxOrder := n - 1 - run
	if maxOrder < 1 {
		return nil, fmt.Errorf("%w: plan length %d too short for run %d", ErrNoTruncation, n, run)
	}
	// Last lag whose partial correlation is still significant.
	order := 1
	for k := 1; k < n; k++ {
		if math.Abs(partialCorr(k)) >= tol {
			order = k
		}
	}
	if order > maxOrder {
		return nil, fmt.Errorf("%w: partial correlations above %g up to lag %d of %d", ErrNoTruncation, tol, order, n)
	}
	for {
		h, err := head(order + 1)
		if err != nil {
			return nil, err
		}
		row := h.row(order)
		maxErr := arExtensionError(row, r)
		if opt.ACFTol <= 0 || maxErr <= opt.ACFTol {
			t := &Truncated{
				head:   h,
				order:  order,
				row:    row,
				v:      h.v[order],
				sqrtV:  math.Sqrt(h.v[order]),
				phiSum: h.phiSum[order],
				tol:    tol,
				maxErr: maxErr,
			}
			return t, nil
		}
		next := order + order/2 + 16
		if next > maxOrder {
			return nil, fmt.Errorf("%w: ACF error %.3g > %g at max usable order %d", ErrNoTruncation, maxErr, opt.ACFTol, order)
		}
		order = next
	}
}

// arExtensionError extends the autocorrelation table r with the AR(p)
// Yule–Walker recursion implied by the reversed row p and returns the max
// absolute deviation from r over lags p+1 .. len(r)-1. Lags 0..p match
// exactly by construction of the Durbin–Levinson row.
func arExtensionError(row, r []float64) float64 {
	order := len(row)
	ext := make([]float64, len(r))
	copy(ext, r[:order+1])
	var worst float64
	for k := order + 1; k < len(r); k++ {
		base := k - order
		var s float64
		for i := 0; i < order; i++ {
			s += row[i] * ext[base+i]
		}
		ext[k] = s
		if d := math.Abs(s - r[k]); d > worst {
			worst = d
		}
	}
	return worst
}

// Order returns the truncation order p.
func (t *Truncated) Order() int { return t.order }

// Row returns a copy of the frozen coefficient row in its stored reversed
// orientation: Row()[i] = phi_{p,p-i}, so the AR coefficient of lag k is
// Row()[p-k]. This is the exact vector CondMean regresses on, exposed for
// engines (streamblock) that rebuild the AR(p) conditional law elsewhere.
func (t *Truncated) Row() []float64 {
	return append([]float64(nil), t.row...)
}

// ImpliedACF returns the autocorrelation of the stationary AR(p) process the
// frozen row defines, at lags 0..lags-1: the target table up to the order
// (the row solves those Yule-Walker equations exactly) and the AR extension
// beyond it. The extension decays quasi-exponentially where a long-memory
// target decays as a power law — ImpliedACF minus the target IS the
// truncation error, lag by lag, which the conformance LRD-tail gate compares
// against the measured block-stream curve.
func (t *Truncated) ImpliedACF(lags int) []float64 {
	if lags <= 0 {
		return nil
	}
	ext := make([]float64, lags)
	exact := copy(ext, t.head.r)
	for k := exact; k < lags; k++ {
		base := k - t.order
		var s float64
		for i := 0; i < t.order; i++ {
			s += t.row[i] * ext[base+i]
		}
		ext[k] = s
	}
	return ext
}

// Tol returns the tolerance the truncation was built with.
func (t *Truncated) Tol() float64 { return t.tol }

// MaxACFError returns the measured max absolute deviation between the
// AR(p)-implied autocorrelation and the plan's table beyond the order.
func (t *Truncated) MaxACFError() float64 { return t.maxErr }

// Derived returns the value memoized on the truncation under key, calling
// build on its first request; concurrent first requests share one build.
// Packages that precompute immutable state from a truncation (streamblock
// engines, modelspec's per-spec state) keep it here, so it is released with
// the truncation — when the cache entry holding it is evicted or purged —
// rather than pinned by a process-wide map. A truncation from Plan.Truncate
// is the caller's own and shares its Derived state with no one. key must be
// comparable; give it an unexported type so packages cannot collide. At most
// a small fixed number of keys is kept per truncation; past that the memo
// starts over.
func (t *Truncated) Derived(key any, build func() (any, error)) (any, error) {
	return t.derived.get(key, build)
}

// Len reports the maximum path length, which for the AR(p) fast path is
// unbounded: generation beyond the plan length is exactly what truncation
// buys. It satisfies the same interface as Plan.Len for horizon checks.
func (t *Truncated) Len() int { return math.MaxInt }

// CondVar returns the conditional variance at step k: exact below the
// order, the frozen innovation variance at and beyond it.
func (t *Truncated) CondVar(k int) float64 {
	if k < t.order {
		return t.head.v[k]
	}
	return t.v
}

// PhiRowSum returns the coefficient row sum at step k (frozen beyond the
// order), the quantity the importance-sampling twist needs.
func (t *Truncated) PhiRowSum(k int) float64 {
	if k < t.order {
		return t.head.PhiRowSum(k)
	}
	return t.phiSum
}

// CondMean returns the conditional mean of X_k given x[0..k-1]: the exact
// full-history regression below the order, the frozen O(p) regression on
// the last p values at and beyond it.
func (t *Truncated) CondMean(k int, x []float64) float64 {
	if k < t.order {
		return t.head.CondMean(k, x)
	}
	base := k - t.order
	h := x[base : base+t.order]
	row := t.row
	var m float64
	for i := t.order - 1; i >= 0; i-- {
		m += row[i] * h[i]
	}
	return m
}

// Generate fills out with one sample path. Unlike Plan.Generate, len(out)
// may exceed the plan length: the first p steps follow the exact
// conditional law (bit-identical to the exact generator), the rest the
// frozen AR(p) law.
func (t *Truncated) Generate(r *rng.Source, out []float64) {
	p := t.head
	limit := t.order
	if limit > len(out) {
		limit = len(out)
	}
	for k := 0; k < limit; k++ {
		m := p.CondMean(k, out[:k])
		out[k] = m + math.Sqrt(p.v[k])*r.Norm()
	}
	row := t.row
	for k := t.order; k < len(out); k++ {
		h := out[k-t.order : k]
		var m float64
		for i := t.order - 1; i >= 0; i-- {
			m += row[i] * h[i]
		}
		out[k] = m + t.sqrtV*r.Norm()
	}
}

// Path allocates and returns a fresh sample path of length n (any n).
func (t *Truncated) Path(r *rng.Source, n int) []float64 {
	out := make([]float64, n)
	t.Generate(r, out)
	return out
}

// TruncatedGenerator streams a truncated-AR path one step at a time while
// holding only an O(p) window of history, so arbitrarily long paths run in
// constant memory. It is bound to a single goroutine. FillLockstep
// advances several generators of one truncation together, bit for bit as
// Next would.
type TruncatedGenerator struct {
	t   *Truncated
	rng *rng.Source
	pos int
	buf []float64 // history window; always ends at step pos-1
}

// NewTruncatedGenerator returns a streaming generator over the truncation.
func NewTruncatedGenerator(t *Truncated, r *rng.Source) *TruncatedGenerator {
	capacity := 2 * t.order
	if capacity < t.order+64 {
		capacity = t.order + 64
	}
	return &TruncatedGenerator{t: t, rng: r, buf: make([]float64, 0, capacity)}
}

// Next returns the next sample of the path.
func (g *TruncatedGenerator) Next() float64 {
	t := g.t
	k := g.pos
	var x float64
	// Every product is rounded before its add (float64(x*y)), which keeps
	// a compiler that fuses multiply-adds, arm64's, on the amd64 bits.
	if k < t.order {
		m := t.head.CondMean(k, g.buf)
		x = m + float64(math.Sqrt(t.head.v[k])*g.rng.Norm())
	} else {
		if len(g.buf) == cap(g.buf) {
			n := copy(g.buf, g.buf[len(g.buf)-t.order:])
			g.buf = g.buf[:n]
		}
		h := g.buf[len(g.buf)-t.order:]
		row := t.row
		var m float64
		for i := t.order - 1; i >= 0; i-- {
			m += float64(row[i] * h[i])
		}
		x = m + float64(t.sqrtV*g.rng.Norm())
	}
	g.buf = append(g.buf, x)
	g.pos++
	return x
}

// FillLockstep fills out[i] with the next len(out[i]) samples of gens[i],
// for every i: the same values, and the same generator state afterwards
// (position, history window, rng), as len(out[i]) successive gens[i].Next
// calls. Every generator must run over the same truncation, and no
// generator may appear twice.
//
// Next's conditional mean beyond the order is one dependent chain of p
// adds, so it runs at add latency. The chains of different generators are
// independent, so FillLockstep runs groups of up to Lanes of them in
// lockstep over an interleaved arena (lanes): one pass over the row
// advances every lane, each summed in exactly Next's order, which keeps
// every sample bit-identical. Warm-up steps (pos < order), the steps a
// group's longer lanes take past its shortest, and a group of one go
// through Next.
func FillLockstep(gens []*TruncatedGenerator, out [][]float64) {
	if len(gens) != len(out) {
		panic("hosking: FillLockstep needs one output per generator")
	}
	for lo := 0; lo < len(gens); lo += Lanes {
		g, o := gens[lo:min(lo+Lanes, len(gens))], out[lo:min(lo+Lanes, len(gens))]
		var done [Lanes]int
		common := math.MaxInt
		for i, gi := range g {
			if gi.t != gens[0].t {
				panic("hosking: FillLockstep generators run over different truncations")
			}
			for ; done[i] < len(o[i]) && gi.pos < gi.t.order; done[i]++ {
				o[i][done[i]] = gi.Next()
			}
			common = min(common, len(o[i])-done[i])
		}
		if len(g) > 1 && common > 0 {
			var lane [Lanes][]float64
			for i := range g {
				lane[i] = o[i][done[i] : done[i]+common]
				done[i] += common
			}
			g[0].t.lockstep(g, lane[:len(g)])
		}
		for i, gi := range g {
			for ; done[i] < len(o[i]); done[i]++ {
				o[i][done[i]] = gi.Next()
			}
		}
	}
}

// lockstep advances 2..Lanes generators, all past warm-up, by len(out[0])
// steps each (every out has that length), writing lane l's samples to
// out[l]. It loads each window into a borrowed arena, runs the steps there
// laneSeg at a time, each lane drawing a pass's innovations in one
// NormPairs (the values and rng state of as many Norm calls), and leaves
// each generator where Next would.
func (t *Truncated) lockstep(g []*TruncatedGenerator, out [][]float64) {
	p := t.order
	a := t.borrowArena()
	h := a.h
	for l := range Lanes {
		if l < len(g) {
			for r, x := range g[l].buf[len(g[l].buf)-p:] {
				h[r][l] = x
			}
		} else {
			for r := range h {
				h[r][l] = 0
			}
		}
	}
	n := len(out[0])
	for k := 0; k < n; {
		seg := min(n-k, laneSeg)
		inno := h[p : p+seg]
		for l, gi := range g {
			z := a.z[:seg/2]
			gi.rng.NormPairs(z)
			for j, c := range z {
				inno[2*j][l] = float64(t.sqrtV * real(c))
				inno[2*j+1][l] = float64(t.sqrtV * imag(c))
			}
			if seg&1 != 0 {
				inno[seg-1][l] = float64(t.sqrtV * gi.rng.Norm())
			}
		}
		lanes(h, t.row, seg, len(g))
		for l := range g {
			o := out[l][k : k+seg]
			for j := range o {
				o[j] = inno[j][l]
			}
		}
		k += seg
		if k < n {
			copy(h, h[seg:seg+p])
		}
	}
	for l, gi := range g {
		gi.follow(out[l])
	}
	t.giveBackArena(a)
}

// follow records x, the next len(x) samples, as len(x) Next calls would:
// the position advances, and the window, compacted to its last p samples
// at every step that finds it full, ends with x.
func (g *TruncatedGenerator) follow(x []float64) {
	p, c, l, n := g.t.order, cap(g.buf), len(g.buf), len(x)
	g.pos += n
	if l+n <= c {
		g.buf = append(g.buf, x...)
		return
	}
	// The window fills after c-l steps; every c-p steps after that one
	// finds it full and keeps p, so it ends holding p+1 .. c samples.
	keep := p + (n-(c-l)-1)%(c-p) + 1
	buf := g.buf[:keep]
	if keep > n {
		copy(buf, g.buf[l-(keep-n):l])
		copy(buf[keep-n:], x)
	} else {
		copy(buf, x[n-keep:])
	}
	g.buf = buf
}

// borrowArena lends a lockstep arena, an idle one when there is one.
func (t *Truncated) borrowArena() *laneArena {
	t.arenaMu.Lock()
	if n := len(t.arenas); n > 0 {
		a := t.arenas[n-1]
		t.arenas[n-1] = nil
		t.arenas = t.arenas[:n-1]
		t.arenaMu.Unlock()
		return a
	}
	t.arenaMu.Unlock()
	return &laneArena{h: make([][Lanes]float64, t.order+laneSeg)}
}

// giveBackArena returns a borrowed arena to the free list, or drops it to
// the collector when GOMAXPROCS arenas are already idle: a group holds one
// only while it runs, so that many cover every group that can run at once.
func (t *Truncated) giveBackArena(a *laneArena) {
	t.arenaMu.Lock()
	if len(t.arenas) < runtime.GOMAXPROCS(0) {
		t.arenas = append(t.arenas, a)
	}
	t.arenaMu.Unlock()
}

// Pos returns how many samples have been generated so far.
func (g *TruncatedGenerator) Pos() int { return g.pos }

// Reset discards the path so the generator can produce a fresh replication.
func (g *TruncatedGenerator) Reset() {
	g.pos = 0
	g.buf = g.buf[:0]
}

// Reseed discards the path and re-keys the rng in place, so a pooled
// generator produces the replication keyed by seed without allocating.
// Reseed(s) then Next... is bit-identical to a fresh generator built with
// rng.New(s).
func (g *TruncatedGenerator) Reseed(seed uint64) {
	g.rng.Reseed(seed)
	g.Reset()
}
