package par

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// fanOutFill computes a deterministic per-index value; any change in which
// job index produces which slot value is a bit-level diff.
func fanOutFill(workers, n int) []uint64 {
	out := make([]uint64, n)
	For(workers, n, func(_, i int) {
		v := math.Sin(float64(i)*1.618) * math.Exp(float64(i%17))
		out[i] = math.Float64bits(v)
	})
	return out
}

// observe installs an observer that records every run until the test ends.
// Tests using it are not parallel: the observer is process-wide.
func observe(t *testing.T) *[]RunStats {
	var mu sync.Mutex
	var runs []RunStats
	SetObserver(func(st RunStats) {
		mu.Lock()
		runs = append(runs, st)
		mu.Unlock()
	})
	t.Cleanup(func() { SetObserver(nil) })
	return &runs
}

// TestObserverStatsBitIdentity: collecting stats must not change fan-out
// results for any worker count, and each run reports sane stats.
func TestObserverStatsBitIdentity(t *testing.T) {
	const n = 257 // odd length so chunks are ragged
	for workers := 1; workers <= 8; workers++ {
		want := fanOutFill(workers, n)

		runs := observe(t)
		got := fanOutFill(workers, n)
		SetObserver(nil)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d differs with stats on: %x != %x",
					workers, i, got[i], want[i])
			}
		}
		if len(*runs) != 1 {
			t.Fatalf("workers=%d: observer saw %d runs, want 1", workers, len(*runs))
		}
		st := (*runs)[0]
		if st.Tasks != n {
			t.Fatalf("workers=%d: tasks = %d, want %d", workers, st.Tasks, n)
		}
		if st.Runs != 1 || st.PeakInFlight < 1 || st.PeakInFlight > workers {
			t.Fatalf("workers=%d: stats = %+v", workers, st)
		}
		if len(st.Busy) != Workers(workers, n) {
			t.Fatalf("workers=%d: busy slots = %d", workers, len(st.Busy))
		}
		if st.BusyTotal() < 0 || st.Utilization() < 0 || st.Utilization() > 1.000001 {
			t.Fatalf("workers=%d: derived stats out of range: busy=%v util=%v",
				workers, st.BusyTotal(), st.Utilization())
		}
	}
}

// TestObserverForCtxErrorWithStats: with stats collected, ForCtx keeps its
// lowest-index error for any worker count.
func TestObserverForCtxErrorWithStats(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	runs := observe(t)
	for _, workers := range []int{1, 2, 4, 8} {
		err := ForCtx(context.Background(), workers, 100, func(_, i int) error {
			switch i {
			case 31:
				return errLow
			case 77:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err = %v, want lowest-index error", workers, err)
		}
	}
	if len(*runs) != 4 {
		t.Fatalf("observer saw %d runs, want 4", len(*runs))
	}
}

// TestObserverReceivesRunStats checks the global observer hook fires for
// the package-level helpers and that results stay identical while it is
// installed. Not parallel: the observer is process-wide.
func TestObserverReceivesRunStats(t *testing.T) {
	const n = 64
	base := make([]uint64, n)
	For(4, n, func(_, i int) { base[i] = math.Float64bits(math.Cos(float64(i))) })

	var runs []RunStats
	SetObserver(func(st RunStats) { runs = append(runs, st) })
	defer SetObserver(nil)

	got := make([]uint64, n)
	For(4, n, func(_, i int) { got[i] = math.Float64bits(math.Cos(float64(i))) })
	if err := ForCtx(context.Background(), 2, n, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}

	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("index %d differs with observer installed", i)
		}
	}
	if len(runs) != 2 {
		t.Fatalf("observer saw %d runs, want 2", len(runs))
	}
	if runs[0].Tasks != n || runs[0].Workers != 4 {
		t.Fatalf("first run stats = %+v", runs[0])
	}
	if runs[1].Workers != 2 {
		t.Fatalf("second run stats = %+v", runs[1])
	}
}

// TestObserverForChunks checks the instrumented ForChunks path keeps the
// exact chunking of the plain path (every index once, same owner slots)
// while reporting the run to the observer.
func TestObserverForChunks(t *testing.T) {
	const n = 53
	const workers = 4
	plain := make([]int32, n)
	ForChunks(workers, n, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.StoreInt32(&plain[i], int32(worker))
		}
	})

	var runs []RunStats
	SetObserver(func(st RunStats) { runs = append(runs, st) })
	defer SetObserver(nil)

	var counts [n]int32
	ForChunks(workers, n, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
			if plain[i] != int32(worker) {
				t.Errorf("index %d: instrumented owner %d, plain owner %d", i, worker, plain[i])
			}
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times under the observer", i, c)
		}
	}
	if len(runs) != 1 || runs[0].Tasks != n || runs[0].Workers != workers {
		t.Fatalf("observer runs = %+v", runs)
	}
}

func TestObserverInlinePath(t *testing.T) {
	var got *RunStats
	SetObserver(func(st RunStats) { got = &st })
	defer SetObserver(nil)
	For(1, 10, func(_, _ int) {})
	if got == nil || got.Workers != 1 || got.Tasks != 10 || got.PeakInFlight != 1 {
		t.Fatalf("inline run stats = %+v", got)
	}
}
