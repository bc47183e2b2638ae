package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// Convergence is one estimator progress snapshot: the running estimate and
// its error statistics partway through a replication sweep. For importance
// sampling, VarianceRatio is the paper's efficiency headline — the factor
// by which plain Monte Carlo's normalized variance exceeds the IS run's
// (so it reads as "MC would need this many times the replications"); for
// plain MC it is identically 1.
type Convergence struct {
	Estimator      string  // "is" | "mc" | "is-transient"
	Completed      int     // replications folded into this snapshot
	Total          int     // replications requested
	Hits           int     // replications that reached the rare event
	P              float64 // running estimate of the overflow probability
	StdErr         float64 // running standard error of P
	NormVar        float64 // running sample variance / P^2
	VarianceRatio  float64 // MC normalized variance ((1-P)/P) over NormVar
	RepsPerSec     float64
	ElapsedSeconds float64
}

// convergenceJSON mirrors Convergence for encoding; non-finite floats
// (p=0 early in a rare-event run makes NormVar infinite) become null so
// every snapshot is a valid JSON line.
type convergenceJSON struct {
	Type           string   `json:"type"`
	Estimator      string   `json:"estimator"`
	Completed      int      `json:"completed"`
	Total          int      `json:"total"`
	Hits           int      `json:"hits"`
	P              *float64 `json:"p"`
	StdErr         *float64 `json:"std_err"`
	NormVar        *float64 `json:"norm_var"`
	VarianceRatio  *float64 `json:"variance_ratio"`
	RepsPerSec     float64  `json:"reps_per_sec"`
	ElapsedSeconds float64  `json:"elapsed_sec"`
}

func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// MarshalJSON renders the snapshot as a `"type":"convergence"` NDJSON
// object with non-finite statistics as null.
func (c Convergence) MarshalJSON() ([]byte, error) {
	return json.Marshal(convergenceJSON{
		Type:           "convergence",
		Estimator:      c.Estimator,
		Completed:      c.Completed,
		Total:          c.Total,
		Hits:           c.Hits,
		P:              finiteOrNil(c.P),
		StdErr:         finiteOrNil(c.StdErr),
		NormVar:        finiteOrNil(c.NormVar),
		VarianceRatio:  finiteOrNil(c.VarianceRatio),
		RepsPerSec:     c.RepsPerSec,
		ElapsedSeconds: c.ElapsedSeconds,
	})
}

// ProgressWriter returns a callback that emits each snapshot as one NDJSON
// line on w, serialized by a mutex so concurrent estimators (multiplexed
// qsim runs) interleave whole lines.
func ProgressWriter(w io.Writer) func(Convergence) {
	var mu sync.Mutex
	return func(c Convergence) {
		b, err := json.Marshal(c)
		if err != nil {
			return
		}
		b = append(b, '\n')
		mu.Lock()
		w.Write(b)
		mu.Unlock()
	}
}

// Meter accumulates per-replication outcomes in completion order and emits
// a Convergence snapshot every `every` completions plus a final one at
// Finish. It is the shared progress engine for queue.EstimateOverflowCtx
// (weight 1/0 indicators) and impsample.EstimateCtx (likelihood-ratio
// weights).
//
// The meter's accumulators are entirely separate from the rep-indexed
// buffers the estimators reduce for their final answer: completion order
// varies run to run, so snapshot values may differ across runs, but the
// final estimate never does.
type Meter struct {
	mu        sync.Mutex
	estimator string
	total     int
	every     int
	emit      func(Convergence)
	start     time.Time

	completed int
	hits      int
	sum       float64
	sumSq     float64
}

// NewMeter returns a meter emitting through emit (nil disables emission).
// every <= 0 defaults to max(1, total/32).
func NewMeter(estimator string, total, every int, emit func(Convergence)) *Meter {
	if every <= 0 {
		every = total / 32
		if every < 1 {
			every = 1
		}
	}
	return &Meter{estimator: estimator, total: total, every: every, emit: emit, start: time.Now()}
}

// Add folds one completed replication (its weight contribution and whether
// it hit the rare event) into the meter, emitting a snapshot on every Nth
// completion. Nil-safe so estimators can call it unconditionally.
//
// emit runs under the meter's lock: snapshots arrive serialized and in
// completion order (monotone Completed), so callbacks need no locking of
// their own. Keep emit cheap — workers calling Add block while it runs.
func (m *Meter) Add(weight float64, hit bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	if hit {
		m.hits++
	}
	m.sum += weight
	m.sumSq += weight * weight
	if m.emit != nil && (m.completed%m.every == 0 || m.completed == m.total) {
		m.emit(m.snapshotLocked())
	}
}

// Finish emits a final snapshot if the last Add didn't already (e.g. the
// run was cut short by context cancellation).
func (m *Meter) Finish() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.emit != nil && m.completed > 0 && m.completed%m.every != 0 && m.completed != m.total {
		m.emit(m.snapshotLocked())
	}
}

func (m *Meter) snapshotLocked() Convergence {
	n := float64(m.completed)
	elapsed := time.Since(m.start).Seconds()
	c := Convergence{
		Estimator:      m.estimator,
		Completed:      m.completed,
		Total:          m.total,
		Hits:           m.hits,
		ElapsedSeconds: elapsed,
	}
	if elapsed > 0 {
		c.RepsPerSec = n / elapsed
	}
	if m.completed == 0 {
		return c
	}
	p := m.sum / n
	variance := m.sumSq/n - p*p
	if variance < 0 {
		variance = 0 // guard FP cancellation
	}
	c.P = p
	c.StdErr = math.Sqrt(variance / n)
	c.NormVar = variance / (p * p)
	// Plain MC on the same p has per-rep variance p(1-p), normalized
	// (1-p)/p; the ratio is the IS efficiency factor (1 for MC itself).
	c.VarianceRatio = ((1 - p) / p) / c.NormVar
	return c
}
