// Package par provides the small deterministic fan-out helpers shared by
// every replication loop in the library (queue Monte Carlo, importance
// sampling, attenuation measurement, conformance replication bands).
//
// The helpers deliberately do NOT hide how work maps to results: callers
// index per-job state (seeds, output slots) by the job index i, never by the
// worker index, so results are bit-identical for any worker count. Workers
// exist only to overlap CPU time; they own scratch arenas, not randomness.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), and the result is clamped to [1, jobs] so callers
// never spawn idle goroutines.
func Workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if jobs < 1 {
		jobs = 1
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs fn(worker, i) for every i in [0, n), fanning the index range
// across the given number of workers in contiguous chunks. fn receives the
// worker slot (0..workers-1) for scratch-arena lookup and the job index i for
// everything that affects results. With workers <= 1 the loop runs inline on
// the calling goroutine and performs no allocations.
func For(workers, n int, fn func(worker, i int)) {
	run(workers, n, task{each: fn})
}

// ForChunks runs fn(worker, lo, hi) once per worker slot, where [lo, hi) is
// the contiguous chunk of [0, n) that slot owns — the same chunking For
// computes, exposed as whole ranges. The worker→range mapping depends only
// on (workers, n), so repeated calls with the same arguments hand every
// index to the same worker slot: callers that key per-worker state (scratch
// arenas, cache-warm session runs) get stable affinity across rounds, and a
// worker walks one contiguous run of jobs instead of striped indices. As
// with For, per-job state must be indexed by job index, never by worker, so
// results are bit-identical for any worker count. With workers <= 1 the
// whole range runs inline on the calling goroutine with no allocations.
func ForChunks(workers, n int, fn func(worker, lo, hi int)) {
	run(workers, n, task{chunk: fn})
}

// ForCtx is For with cancellation and error propagation: each worker checks
// ctx between jobs and stops its chunk on the first error. ForCtx returns the
// error of the lowest-indexed failing job (deterministic regardless of worker
// interleaving), or the context error if the run was cancelled.
func ForCtx(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	return run(workers, n, task{ctx: ctx, try: fn})
}

// task is the work of one fan-out: exactly one of each, chunk and try is
// set (try with its ctx).
type task struct {
	each  func(worker, i int)
	chunk func(worker, lo, hi int)
	try   func(worker, i int) error
	ctx   context.Context
}

// runRange runs the jobs in [lo, hi) on worker slot w. A try task stops at
// the first job that fails or finds ctx cancelled and returns that job's
// index and error; otherwise runRange returns (hi, nil).
func (t *task) runRange(w, lo, hi int) (int, error) {
	switch {
	case t.chunk != nil:
		t.chunk(w, lo, hi)
	case t.try != nil:
		for i := lo; i < hi; i++ {
			if err := t.ctx.Err(); err != nil {
				return i, err
			}
			if err := t.try(w, i); err != nil {
				return i, err
			}
		}
	default:
		for i := lo; i < hi; i++ {
			t.each(w, i)
		}
	}
	return hi, nil
}

// run is the one chunk runner behind For, ForChunks and ForCtx: worker slot
// w owns the contiguous chunk [w·c, (w+1)·c) of [0, n), c = ⌈n/workers⌉.
// With workers <= 1 the whole range runs inline. When an observer is
// installed the same loop also collects RunStats; collection never changes
// which slot runs which job, so results stay bit-identical.
func run(workers, n int, t task) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	obs := observer.Load()
	if workers <= 1 {
		if obs == nil {
			_, err := t.runRange(0, 0, n)
			return err
		}
		start := time.Now()
		_, err := t.runRange(0, 0, n)
		d := time.Since(start)
		(*obs)(RunStats{Runs: 1, Workers: 1, Tasks: n, PeakInFlight: 1, Busy: []time.Duration{d}, Wall: d})
		return err
	}
	return fanOut(workers, n, t, obs)
}

// fanOut runs t's chunks on one goroutine per worker slot. Kept apart from
// run so that only a real fan-out allocates.
func fanOut(workers, n int, t task, obs *func(RunStats)) error {
	f := &fan{task: t}
	if t.try != nil {
		f.fails = make([]failure, workers)
	}
	if obs != nil {
		f.meter = &meter{st: RunStats{Runs: 1, Workers: workers, Tasks: n, Busy: make([]time.Duration, workers)}, start: time.Now()}
	}
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		f.wg.Add(1)
		go f.work(w, lo, hi)
	}
	f.wg.Wait()
	if m := f.meter; m != nil {
		m.st.PeakInFlight = int(m.peak.Load())
		m.st.Wall = time.Since(m.start)
		(*obs)(m.st)
	}
	if t.try == nil {
		return nil
	}
	if err := t.ctx.Err(); err != nil {
		return err
	}
	first := failure{i: n}
	for _, fl := range f.fails {
		if fl.err != nil && fl.i < first.i {
			first = fl
		}
	}
	return first.err
}

// fan is the state one fan-out's workers share.
type fan struct {
	task
	wg    sync.WaitGroup
	fails []failure // per worker slot; try tasks only
	meter *meter    // nil without an observer
}

// failure is a try task's first failing job in one worker's chunk.
type failure struct {
	i   int
	err error
}

// meter collects one fan-out's RunStats for the observer.
type meter struct {
	st             RunStats
	start          time.Time
	inFlight, peak atomic.Int64
}

// work runs worker slot w's chunk [lo, hi).
func (f *fan) work(w, lo, hi int) {
	defer f.wg.Done()
	m := f.meter
	var t0 time.Time
	if m != nil {
		cur := m.inFlight.Add(1)
		for {
			old := m.peak.Load()
			if cur <= old || m.peak.CompareAndSwap(old, cur) {
				break
			}
		}
		t0 = time.Now()
	}
	if i, err := f.runRange(w, lo, hi); err != nil {
		f.fails[w] = failure{i, err}
	}
	if m != nil {
		m.st.Busy[w] = time.Since(t0)
		m.inFlight.Add(-1)
	}
}
