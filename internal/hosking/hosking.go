// Package hosking implements Hosking's method (Durbin–Levinson conditional
// sampling) for generating exact sample paths of a stationary zero-mean
// unit-variance Gaussian process with an arbitrary autocorrelation function,
// as described in Section 2 of the paper.
//
// The regression coefficients phi_{k,j} and the conditional variances v_k
// depend only on the autocorrelation, not on the sampled path, so they are
// precomputed once into a Plan and shared — read-only — by any number of
// concurrent replications. This removes the dominant recurring cost of the
// paper's simulation loop (the paper notes that "the generation of self
// similar traffic using Hosking's method is computationally quite
// demanding").
//
// The Plan also exposes the per-step conditional means and variances, which
// is exactly what the importance-sampling likelihood ratios of Appendix B
// need (eqs. 35-48).
//
// Memory layout: the triangular phi table is a single flat backing array.
// Row k (k = 1..n-1) lives at offset k*(k-1)/2 and stores the coefficients
// in reversed order, row[i] = phi_{k,k-i}, so that the conditional mean
// m_k = sum_j phi_{k,j} x_{k-j} becomes a unit-stride dot product of row
// with the history x[0..k-1]. One allocation replaces n ragged rows and
// both operands of the hot dot product walk memory in the same direction.
//
// Construction: one row kernel, durbinLevinson, runs the recursion for
// every build, with two storage modes. An exact plan stores every row in
// its triangle. A truncation (truncate.go) needs only the partial
// correlations to place its order and the O(p^2) prefix it keeps, so the
// plan cache builds it by scanning over two rolling rows and then
// rebuilding the first p+1 steps — the same bits as truncating the full
// plan, without the O(n^2) triangle. The kernel writes row k, sums it and
// forms the next row's d_{k+1} in one descending pass, each reduction in
// its historical term order.
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

// ErrNotPositiveDefinite is returned when the supplied autocorrelation is not
// a valid (positive-definite) correlation function for the requested length.
var ErrNotPositiveDefinite = errors.New("hosking: autocorrelation is not positive definite")

// MaxPlanLen bounds plan construction. A plan of length
// n stores n*(n-1)/2 coefficients; 1<<17 steps is ~64 GiB of phi table, far
// beyond practical. Longer horizons should use the Truncated fast path,
// which can generate paths of any length from a moderate plan.
const MaxPlanLen = 1 << 17

// reduceChunk is the block size for the chunked inner-loop reductions used
// by plan construction. Rows no longer than reduceChunk are reduced with
// the plain serial loop in the historical summation order, so every plan of
// length <= reduceChunk+1 is bit-identical to the original serial
// implementation. Longer rows use fixed-size chunk partials combined in a
// deterministic order, which makes the result independent of the worker
// count (serial and parallel construction agree bitwise) at the cost of a
// one-time reassociation relative to the pre-chunking code.
const reduceChunk = 8192

// Plan holds the precomputed Durbin–Levinson state for generating paths of
// length n. A Plan is immutable after construction and safe for concurrent
// use by multiple goroutines.
type Plan struct {
	n      int
	r      []float64 // r[k] = autocorrelation at lag k, 0..n-1
	flat   []float64 // reversed-row triangle: row k at flat[k*(k-1)/2:], row[i] = phi_{k,k-i}
	v      []float64 // v[k] = conditional variance of X_k given X_0..X_{k-1}
	phiSum []float64 // phiSum[k] = sum_j phi_{k,j}; 0 at k = 0

	truncs memo // Truncate results, keyed by normalized TruncateOptions
}

// rowOffset returns the index of row k inside the flat triangle.
func rowOffset(k int) int { return k * (k - 1) / 2 }

// row returns the reversed coefficient row for step k: row[i] = phi_{k,k-i}.
func (p *Plan) row(k int) []float64 {
	off := rowOffset(k)
	return p.flat[off : off+k]
}

// prefix returns a plan of the first m steps (1 <= m <= n) holding its own
// copies of rows k < m and of r, v and phiSum below m, so it does not keep
// p alive. Durbin–Levinson is prefix-consistent: every step below m reads
// the same values from either plan.
func (p *Plan) prefix(m int) *Plan {
	return &Plan{
		n:      m,
		r:      append([]float64(nil), p.r[:m]...),
		flat:   append([]float64(nil), p.flat[:rowOffset(m)]...),
		v:      append([]float64(nil), p.v[:m]...),
		phiSum: append([]float64(nil), p.phiSum[:m]...),
	}
}

// bytes returns the size of the plan's float64 tables.
func (p *Plan) bytes() int64 {
	return 8 * int64(len(p.r)+len(p.flat)+len(p.v)+len(p.phiSum))
}

// PlanOptions tunes plan construction. The zero value selects defaults.
type PlanOptions struct {
	// Workers is the number of goroutines used for the O(k) inner loops of
	// rows longer than the chunk cutoff. 0 means GOMAXPROCS. 1 forces the
	// serial path. The result is bit-identical for every worker count.
	Workers int
}

// NewPlan runs the Durbin–Levinson recursion for the given autocorrelation
// model up to length n with default options. It returns
// ErrNotPositiveDefinite (wrapped with the offending lag) if any partial
// correlation falls outside (-1, 1).
func NewPlan(model acf.Model, n int) (*Plan, error) {
	return NewPlanOpts(model, n, PlanOptions{})
}

// NewPlanOpts is NewPlan with explicit construction options.
func NewPlanOpts(model acf.Model, n int, opt PlanOptions) (*Plan, error) {
	return NewPlanOptsCtx(context.Background(), model, n, opt)
}

// ctxCheckRows is how many Durbin–Levinson rows run between cancellation
// checks during plan construction.
const ctxCheckRows = 64

// NewPlanOptsCtx is NewPlanOpts with cancellation: plan construction is
// O(n^2) and a server request that built it may be gone long before it
// finishes, so the row loop polls ctx every ctxCheckRows rows and returns
// ctx.Err() when the context is done.
func NewPlanOptsCtx(ctx context.Context, model acf.Model, n int, opt PlanOptions) (*Plan, error) {
	r, err := planTable(model, n)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		n:      n,
		r:      r,
		flat:   make([]float64, n*(n-1)/2),
		v:      make([]float64, n),
		phiSum: make([]float64, n),
	}
	p.v[0] = 1
	err = durbinLevinson(ctx, r, opt.Workers,
		func(k int) (prev, row []float64) {
			return p.flat[rowOffset(k-1) : rowOffset(k-1)+k-1], p.flat[rowOffset(k) : rowOffset(k)+k]
		},
		func(k int, _, sum, v float64) { p.phiSum[k], p.v[k] = sum, v })
	if err != nil {
		return nil, err
	}
	return p, nil
}

// planTable validates a plan length and evaluates the model's
// autocorrelation table at lags 0..n-1.
func planTable(model acf.Model, n int) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("hosking: non-positive length")
	}
	if n > MaxPlanLen {
		return nil, fmt.Errorf("hosking: plan length %d exceeds limit %d (use the Truncated fast path for long horizons)", n, MaxPlanLen)
	}
	r := make([]float64, n)
	for k := range r {
		r[k] = model.At(k)
	}
	if r[0] != 1 {
		return nil, errors.New("hosking: model.At(0) must be 1")
	}
	return r, nil
}

// durbinLevinson is the row kernel of every plan and truncation build: it
// runs the Durbin–Levinson recursion over the autocorrelation table r
// (r[0] = 1) for rows k = 1..len(r)-1. rows(k) returns the storage of row
// k-1, which the kernel reads, and of row k, which it writes, both reversed
// (row[i] = phi_{k,k-i}); the exact plan hands out consecutive rows of its
// triangle, the truncation's order scan two rolling rows. done(k, phiKK,
// sum, v) receives row k's partial correlation phi_{k,k}, its row sum and
// the conditional variance v_k. workers is PlanOptions.Workers. The
// recursion polls ctx every ctxCheckRows rows.
func durbinLevinson(ctx context.Context, r []float64, workers int,
	rows func(k int) (prev, row []float64), done func(k int, phiKK, sum, v float64)) error {
	n := len(r)
	if n == 1 {
		return nil
	}
	var pool *planPool
	var partials []float64
	if n-1 > reduceChunk {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > 1 {
			pool = newPlanPool(workers)
			defer pool.close()
		}
		partials = make([]float64, (n+reduceChunk-1)/reduceChunk)
	}

	v := 1.0  // v_{k-1}
	d := r[1] // d_k; a serial row k-1 computes d_k along with itself
	for k := 1; k < n; k++ {
		if k%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		prev, row := rows(k)
		m := k - 1 // inner-loop length

		// d_k = r(k) - sum_{j=1}^{k-1} phi_{k-1,j} r(k-j). In the reversed
		// layout the historical term order (j ascending) is i descending
		// with term prev[i]*r[i+1].
		if m > reduceChunk {
			chunks := (m + reduceChunk - 1) / reduceChunk
			runChunks(pool, chunks, func(c int) {
				lo, hi := c*reduceChunk, (c+1)*reduceChunk
				if hi > m {
					hi = m
				}
				var s float64
				for i := hi - 1; i >= lo; i-- {
					s += prev[i] * r[i+1]
				}
				partials[c] = s
			})
			d = r[k]
			for c := chunks - 1; c >= 0; c-- {
				d -= partials[c]
			}
		}
		phiKK := d / v
		if math.Abs(phiKK) >= 1 || math.IsNaN(phiKK) {
			return fmt.Errorf("%w: partial correlation %v at lag %d", ErrNotPositiveDefinite, phiKK, k)
		}

		// Row update phi_{k,j} = phi_{k-1,j} - phi_{k,k} phi_{k-1,k-j}:
		// reversed, row[i] = prev[i-1] - phiKK*prev[k-1-i] for i = 1..k-1.
		// Elementwise, so chunk order is irrelevant bitwise. The row sum is
		// accumulated in the historical order (reversed-descending).
		var s float64
		if m <= reduceChunk {
			var next float64
			if k+1 < n {
				next = r[k+1]
			}
			s, d = serialRow(prev, row, r, phiKK, next)
		} else {
			row[0] = phiKK // phi_{k,k}
			chunks := (k + reduceChunk - 1) / reduceChunk
			runChunks(pool, chunks, func(c int) {
				lo, hi := c*reduceChunk, (c+1)*reduceChunk
				if hi > k {
					hi = k
				}
				start := lo
				if start == 0 {
					start = 1 // row[0] already holds phiKK
				}
				for i := start; i < hi; i++ {
					row[i] = prev[i-1] - phiKK*prev[k-1-i]
				}
				var ps float64
				for i := hi - 1; i >= lo; i-- {
					ps += row[i]
				}
				partials[c] = ps
			})
			for c := chunks - 1; c >= 0; c-- {
				s += partials[c]
			}
		}
		v *= 1 - phiKK*phiKK
		done(k, phiKK, s, v)
	}
	return nil
}

// serialRow writes row k = len(row) from prev (row k-1) and phi_{k,k}, and
// returns the row sum and d_{k+1} = r(k+1) - sum_{j=1}^{k} phi_{k,j}
// r(k+1-j), where next is r(k+1) (0 for the last row, whose d is unused).
// One descending pass produces all three: each reduction adds its terms in
// the order of its own historical loop, so the bits are those of three
// separate loops, but the two dependency chains run side by side.
func serialRow(prev, row, r []float64, phiKK, next float64) (sum, d float64) {
	k := len(row)
	prev, r = prev[:k-1], r[1:k+1] // r[i] is now r(i+1)
	d = next
	for i := k - 1; i >= 1; i-- {
		x := prev[i-1] - phiKK*prev[len(prev)-i]
		row[i] = x
		sum += x
		d -= x * r[i]
	}
	row[0] = phiKK
	sum += phiKK
	d -= phiKK * r[0]
	return sum, d
}

// planPool is a fixed set of workers that execute chunk bodies for the
// duration of one NewPlan call. Chunk results are combined by the caller in
// a deterministic order, so the pool only provides parallelism, never
// ordering.
type planPool struct {
	tasks chan poolTask
	wg    sync.WaitGroup
}

type poolTask struct {
	body func(int)
	c    int
	done *sync.WaitGroup
}

func newPlanPool(workers int) *planPool {
	p := &planPool{tasks: make(chan poolTask, 2*workers)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.body(t.c)
				t.done.Done()
			}
		}()
	}
	return p
}

func (p *planPool) run(chunks int, body func(int)) {
	var done sync.WaitGroup
	done.Add(chunks)
	for c := 0; c < chunks; c++ {
		p.tasks <- poolTask{body: body, c: c, done: &done}
	}
	done.Wait()
}

func (p *planPool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// runChunks executes body(c) for c in [0, chunks), on the pool when one is
// available, inline otherwise. Bodies write disjoint state; execution order
// does not affect the result.
func runChunks(pool *planPool, chunks int, body func(int)) {
	if pool == nil {
		for c := 0; c < chunks; c++ {
			body(c)
		}
		return
	}
	pool.run(chunks, body)
}

// PhiRowSum returns sum_{j=1}^{k} phi_{k,j}, the sensitivity of the
// conditional mean to a constant shift of the history. It is what the
// importance-sampling likelihood ratio of Appendix B needs: shifting the
// whole history by m* shifts the conditional mean by m* * PhiRowSum(k).
func (p *Plan) PhiRowSum(k int) float64 {
	if k <= 0 || k >= p.n {
		return 0
	}
	return p.phiSum[k]
}

// Len returns the maximum path length the plan supports.
func (p *Plan) Len() int { return p.n }

// ACF returns the autocorrelation value the plan was built from at lag k.
func (p *Plan) ACF(k int) float64 {
	if k < 0 || k >= p.n {
		return 0
	}
	return p.r[k]
}

// CondVar returns v_k, the variance of X_k conditioned on X_0..X_{k-1}.
func (p *Plan) CondVar(k int) float64 { return p.v[k] }

// PartialCorr returns the k-th partial correlation phi_{k,k} (k >= 1).
func (p *Plan) PartialCorr(k int) float64 {
	if k <= 0 || k >= p.n {
		return 0
	}
	return p.flat[rowOffset(k)]
}

// CondMean returns m_k = sum_{j=1}^{k} phi_{k,j} x_{k-j}, the mean of X_k
// conditioned on the history x[0..k-1]. For k == 0 it returns 0.
func (p *Plan) CondMean(k int, x []float64) float64 {
	if k == 0 {
		return 0
	}
	row := p.row(k)
	x = x[:k]
	// Descending i reproduces the historical term order (j = 1..k over the
	// natural layout) bit-for-bit while both operands stay unit-stride.
	var m float64
	for i := k - 1; i >= 0; i-- {
		m += row[i] * x[i]
	}
	return m
}

// Generate fills out with one sample path of the process, using r as the
// randomness source. len(out) must not exceed the plan length.
func (p *Plan) Generate(r *rng.Source, out []float64) {
	if len(out) > p.n {
		panic("hosking: requested path longer than plan")
	}
	for k := range out {
		m := p.CondMean(k, out[:k])
		out[k] = m + math.Sqrt(p.v[k])*r.Norm()
	}
}

// Path allocates and returns a fresh sample path of length n (n <= plan
// length).
func (p *Plan) Path(r *rng.Source, n int) []float64 {
	out := make([]float64, n)
	p.Generate(r, out)
	return out
}

// ConditionalPath generates a continuation of length n given an observed
// prefix: the returned slice holds X_{len(observed)} .. X_{len(observed)+n-1}
// drawn from the process law conditioned on the observations. This is the
// natural forecasting/conditional-simulation use of the Durbin-Levinson
// state: the plan's regression coefficients already encode the conditional
// means and variances at every step. len(observed)+n must not exceed the
// plan length.
func (p *Plan) ConditionalPath(r *rng.Source, observed []float64, n int) []float64 {
	m := len(observed)
	if m+n > p.n {
		panic("hosking: conditional path exceeds plan length")
	}
	hist := make([]float64, m, m+n)
	copy(hist, observed)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		k := m + i
		mean := p.CondMean(k, hist)
		x := mean + math.Sqrt(p.v[k])*r.Norm()
		hist = append(hist, x)
		out[i] = x
	}
	return out
}

// Forecast returns the conditional means E[X_k | observed] for the next n
// steps (the minimum-MSE linear predictor path), along with the conditional
// standard deviations.
func (p *Plan) Forecast(observed []float64, n int) (mean, std []float64) {
	m := len(observed)
	if m+n > p.n {
		panic("hosking: forecast exceeds plan length")
	}
	mean = make([]float64, n)
	std = make([]float64, n)
	hist := make([]float64, m, m+n)
	copy(hist, observed)
	for i := 0; i < n; i++ {
		k := m + i
		mu := p.CondMean(k, hist)
		mean[i] = mu
		// Multi-step prediction error variance compounds; for the one-step
		// tree we report the innovation std of each step given the
		// *predicted* history, which lower-bounds the true multi-step
		// uncertainty and equals it at i = 0.
		std[i] = math.Sqrt(p.v[k])
		hist = append(hist, mu)
	}
	return mean, std
}
