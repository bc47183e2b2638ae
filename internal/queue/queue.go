// Package queue models the ATM multiplexer of Section 4: a slotted-time
// single-server queue with deterministic service rate mu fed by a stationary
// arrival process Y, evolving by the Lindley recursion (eq. 16)
//
//	Q_k = max(Q_{k-1} + Y_k - mu, 0).
//
// It provides the sample-path recursion, the workload-supremum view of
// buffer overflow (eq. 17, valid for an initially empty queue):
//
//	P(Q_k > b) = P(max_{0<=i<=k} W_i > b),  W_i = sum_{j<=i} (Y_j - mu),
//
// plain Monte-Carlo estimation with concurrent replications, and
// time-average estimation over a single long trace (the way the paper
// evaluates the empirical record, which admits only one replication).
package queue

import (
	"context"
	"errors"
	"math"

	"vbrsim/internal/obs"
	"vbrsim/internal/par"
	"vbrsim/internal/rng"
)

// Evolve runs the Lindley recursion from initial occupancy q0 over the
// arrival sequence, returning the queue size after each slot.
func Evolve(q0 float64, arrivals []float64, service float64) []float64 {
	out := make([]float64, len(arrivals))
	q := q0
	for i, y := range arrivals {
		q += y - service
		if q < 0 {
			q = 0
		}
		out[i] = q
	}
	return out
}

// FinalOccupancy runs the Lindley recursion and returns only Q_k.
func FinalOccupancy(q0 float64, arrivals []float64, service float64) float64 {
	q := q0
	for _, y := range arrivals {
		q += y - service
		if q < 0 {
			q = 0
		}
	}
	return q
}

// CrossingTime returns the first slot i (1-based) at which the running
// workload W_i exceeds b, and ok=false if it never does within the sequence.
// For an initially empty queue, {Q_k > b} = {crossing occurred by slot k}.
func CrossingTime(arrivals []float64, service, b float64) (int, bool) {
	var w float64
	for i, y := range arrivals {
		w += y - service
		if w > b {
			return i + 1, true
		}
	}
	return 0, false
}

// Result is a Monte-Carlo estimate with its sampling uncertainty.
type Result struct {
	// P is the estimated probability.
	P float64
	// Variance is the sample variance of the per-replication estimator.
	Variance float64
	// StdErr is the standard error of P (sqrt(Variance/N)).
	StdErr float64
	// NormVar is the variance normalized by P^2 (the paper's Fig. 14
	// y-axis), or +Inf when P == 0.
	NormVar float64
	// Replications actually run.
	Replications int
	// Hits is the number of replications in which the event occurred.
	Hits int
}

// finalize fills the derived fields from the accumulated sums.
func finalize(sum, sumSq float64, n, hits int) Result {
	p := sum / float64(n)
	variance := sumSq/float64(n) - p*p
	if variance < 0 {
		variance = 0
	}
	res := Result{
		P:            p,
		Variance:     variance,
		StdErr:       math.Sqrt(variance / float64(n)),
		Replications: n,
		Hits:         hits,
	}
	if p > 0 {
		res.NormVar = variance / (p * p)
	} else {
		res.NormVar = math.Inf(1)
	}
	return res
}

// PathSource produces one replication's arrival sequence of length k using
// the supplied replication-local random source. Implementations must be safe
// for concurrent calls with distinct sources.
type PathSource interface {
	ArrivalPath(r *rng.Source, k int) []float64
}

// PathSourceFunc adapts a function to the PathSource interface.
type PathSourceFunc func(r *rng.Source, k int) []float64

// ArrivalPath calls the function.
func (f PathSourceFunc) ArrivalPath(r *rng.Source, k int) []float64 { return f(r, k) }

// PathSourceInto is the allocation-free variant of PathSource: the source
// fills a caller-owned buffer instead of allocating a path per replication.
// Estimators probe for it and reuse one buffer per worker, so per-
// replication allocations stop growing with the horizon. Implementations
// must produce exactly the values ArrivalPath would for the same source
// state.
type PathSourceInto interface {
	PathSource
	ArrivalPathInto(r *rng.Source, buf []float64)
}

// MCOptions controls Monte-Carlo overflow estimation.
type MCOptions struct {
	// Replications is the number of independent paths; default 1000 (the
	// paper's setting).
	Replications int
	// Workers bounds the number of concurrent replications; default
	// GOMAXPROCS.
	Workers int
	// Seed drives the replication-local random sources.
	Seed uint64
	// InitialOccupancy is Q_0; default 0 (empty buffer).
	InitialOccupancy float64
	// Progress, when non-nil, receives periodic convergence snapshots
	// (running p, StdErr, normalized variance, reps/sec) as replications
	// complete. Snapshots accumulate in completion order, entirely apart
	// from the per-worker hit counters that produce the returned Result,
	// so enabling progress never changes the estimate.
	Progress func(obs.Convergence)
	// ProgressEvery is the snapshot period in replications; <= 0 means
	// max(1, Replications/32).
	ProgressEvery int
}

// EstimateOverflow estimates P(Q_k > b) by plain Monte Carlo: each
// replication draws a fresh arrival path, runs the Lindley recursion from
// InitialOccupancy, and tests the final occupancy against b.
func EstimateOverflow(src PathSource, service, b float64, k int, opt MCOptions) (Result, error) {
	return EstimateOverflowCtx(context.Background(), src, service, b, k, opt)
}

// EstimateOverflowCtx is EstimateOverflow with cancellation: workers poll
// ctx between replications and the call returns ctx.Err() instead of a
// partial estimate when the context is done.
func EstimateOverflowCtx(ctx context.Context, src PathSource, service, b float64, k int, opt MCOptions) (Result, error) {
	if k <= 0 {
		return Result{}, errors.New("queue: non-positive horizon")
	}
	if service <= 0 {
		return Result{}, errors.New("queue: non-positive service rate")
	}
	if opt.Replications <= 0 {
		opt.Replications = 1000
	}
	workers := par.Workers(opt.Workers, opt.Replications)

	// Pre-split one source per replication for determinism independent of
	// scheduling order.
	root := rng.New(opt.Seed)
	sources := make([]*rng.Source, opt.Replications)
	for i := range sources {
		sources[i] = root.Split()
	}

	// One path buffer and hit counter per worker when the source supports
	// reuse; hit counts are order-independent integer sums, so no
	// per-replication deposit is needed for worker invariance.
	srcInto, reuse := src.(PathSourceInto)
	type arena struct {
		buf  []float64
		hits int
	}
	arenas := make([]arena, workers)
	var meter *obs.Meter
	if opt.Progress != nil {
		meter = obs.NewMeter("mc", opt.Replications, opt.ProgressEvery, opt.Progress)
	}
	span := obs.TracerFrom(ctx).Start("queue.mc")
	err := par.ForCtx(ctx, workers, opt.Replications, func(w, i int) error {
		ar := &arenas[w]
		var path []float64
		if reuse {
			if ar.buf == nil {
				ar.buf = make([]float64, k)
			}
			srcInto.ArrivalPathInto(sources[i], ar.buf)
			path = ar.buf
		} else {
			path = src.ArrivalPath(sources[i], k)
		}
		hit := FinalOccupancy(opt.InitialOccupancy, path, service) > b
		if hit {
			ar.hits++
		}
		if meter != nil {
			if hit {
				meter.Add(1, true)
			} else {
				meter.Add(0, false)
			}
		}
		return nil
	})
	meter.Finish()
	span.End(map[string]any{
		"replications": opt.Replications,
		"workers":      workers,
		"horizon":      k,
	})
	if err != nil {
		return Result{}, err
	}
	totalHits := 0
	for _, ar := range arenas {
		totalHits += ar.hits
	}
	// Indicator estimator: sum = hits, sumSq = hits.
	return finalize(float64(totalHits), float64(totalHits), opt.Replications, totalHits), nil
}

// TraceOverflow estimates the steady-state P(Q > b) from a single long
// arrival trace by the fraction of slots whose queue occupancy exceeds b,
// after discarding the first warmup slots. This is how the paper evaluates
// the empirical record ("one (long) replication").
func TraceOverflow(arrivals []float64, service, b float64, warmup int) (float64, error) {
	if len(arrivals) == 0 {
		return 0, errors.New("queue: empty trace")
	}
	if warmup < 0 || warmup >= len(arrivals) {
		return 0, errors.New("queue: invalid warmup")
	}
	var q float64
	exceed := 0
	count := 0
	for i, y := range arrivals {
		q += y - service
		if q < 0 {
			q = 0
		}
		if i >= warmup {
			count++
			if q > b {
				exceed++
			}
		}
	}
	return float64(exceed) / float64(count), nil
}

// UtilizationService returns the service rate mu that yields the requested
// utilization for an arrival process with the given mean rate:
// mu = mean / utilization.
func UtilizationService(meanArrival, utilization float64) (float64, error) {
	if utilization <= 0 || utilization >= 1 {
		return 0, errors.New("queue: utilization must lie in (0,1)")
	}
	if meanArrival <= 0 {
		return 0, errors.New("queue: non-positive mean arrival rate")
	}
	return meanArrival / utilization, nil
}
