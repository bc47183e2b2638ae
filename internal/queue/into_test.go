package queue

import (
	"sync/atomic"
	"testing"

	"vbrsim/internal/rng"
)

// intoSource implements PathSourceInto with a deterministic arrival stream,
// counting how paths were requested so tests can assert the buffer-reuse
// path is actually exercised. The count is atomic because replications run
// on parallel workers.
type intoSource struct {
	mean      float64
	intoCalls *atomic.Int64
}

func (s intoSource) ArrivalPath(r *rng.Source, k int) []float64 {
	buf := make([]float64, k)
	for i := range buf {
		buf[i] = s.mean + r.Norm()
	}
	return buf
}

func (s intoSource) ArrivalPathInto(r *rng.Source, buf []float64) {
	if s.intoCalls != nil {
		s.intoCalls.Add(1)
	}
	for i := range buf {
		buf[i] = s.mean + r.Norm()
	}
}

func TestEstimateOverflowUsesInto(t *testing.T) {
	var calls atomic.Int64
	src := intoSource{mean: 1.2, intoCalls: &calls}
	opt := MCOptions{Replications: 200, Seed: 9}
	res, err := EstimateOverflow(src, 1.5, 3, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 200 {
		t.Errorf("ArrivalPathInto called %d times, want 200", n)
	}
	// The allocating and reuse paths draw identically, so an alloc-only
	// source must give the bitwise-same estimate.
	plain := PathSourceFunc(intoSource{mean: 1.2}.ArrivalPath)
	ref, err := EstimateOverflow(plain, 1.5, 3, 40, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != ref.P || res.Hits != ref.Hits {
		t.Errorf("Into path changed the estimate: %+v vs %+v", res, ref)
	}
}

func TestEstimateOverflowIntoWorkerInvariance(t *testing.T) {
	src := intoSource{mean: 1.3}
	base := MCOptions{Replications: 400, Seed: 11, Workers: 1}
	one, err := EstimateOverflow(src, 1.6, 4, 50, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 5} {
		opt := base
		opt.Workers = w
		got, err := EstimateOverflow(src, 1.6, 4, 50, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.P != one.P || got.Hits != one.Hits {
			t.Errorf("workers=%d changed result: %+v vs %+v", w, got, one)
		}
	}
}

func TestSuperpositionIntoMatchesArrivalPath(t *testing.T) {
	sup := Superposition{Base: intoSource{mean: 0.8}, N: 3}
	const k = 64
	a := sup.ArrivalPath(rng.New(21), k)
	buf := make([]float64, k)
	sup.ArrivalPathInto(rng.New(21), buf)
	for i := range a {
		if a[i] != buf[i] {
			t.Fatalf("slot %d: ArrivalPath %v vs ArrivalPathInto %v", i, a[i], buf[i])
		}
	}
	// A stale buffer must be fully overwritten, not accumulated into.
	for i := range buf {
		buf[i] = 1e9
	}
	sup.ArrivalPathInto(rng.New(21), buf)
	for i := range a {
		if a[i] != buf[i] {
			t.Fatalf("stale buffer leaked into slot %d: %v vs %v", i, buf[i], a[i])
		}
	}
}
