package par

import (
	"sync/atomic"
	"time"
)

// RunStats describes one fan-out run: how many workers actually ran, how
// many tasks they executed, the peak number of concurrently running
// workers, and per-worker-slot busy time. Collection costs two clock reads
// per worker per run and is only paid when an observer is installed, and
// it never changes which worker slot executes which job index, so results
// stay bit-identical.
type RunStats struct {
	Runs         int
	Workers      int
	Tasks        int
	PeakInFlight int
	Busy         []time.Duration // indexed by worker slot
	Wall         time.Duration
}

// BusyTotal returns the summed busy time across worker slots.
func (s RunStats) BusyTotal() time.Duration {
	var t time.Duration
	for _, b := range s.Busy {
		t += b
	}
	return t
}

// Utilization is the fraction of available worker-time actually spent in
// fn: BusyTotal / (Wall * Workers). 1.0 means perfectly balanced chunks.
func (s RunStats) Utilization() float64 {
	if s.Wall <= 0 || s.Workers <= 0 {
		return 0
	}
	return float64(s.BusyTotal()) / (float64(s.Wall) * float64(s.Workers))
}

// observer is the process-wide run observer. It is consulted once per
// For/ForChunks/ForCtx call with a single atomic load, so the nil (disabled) case
// adds no allocations and no locks to the fan-out paths.
var observer atomic.Pointer[func(RunStats)]

// SetObserver installs fn to receive a RunStats after every For,
// ForChunks or ForCtx run (nil uninstalls). Intended for a single consumer — trafficd's
// metrics layer or a CLI tracer; a later SetObserver replaces the earlier
// one. fn must be safe for concurrent calls.
func SetObserver(fn func(RunStats)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}
