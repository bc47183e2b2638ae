package obs

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"sync"
	"time"
)

// Tracer records named spans over the modeling pipeline (fit, plan
// acquisition, Gaussian generation, transform, queue/IS) and optionally
// streams each completed span as one NDJSON line. All methods are safe on
// a nil receiver, so instrumented code paths need no telemetry-enabled
// branches: a nil tracer is a true no-op and leaves the hot path untouched.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer // nil: collect-only (manifest rollup without a stream)
	err    error     // the stream's first write error
	start  time.Time
	retain bool // keep spans and events for Manifest
	spans  []SpanRecord
	events []map[string]any
}

// SpanRecord is one completed stage: wall time, coarse allocation deltas
// (from runtime.MemStats, so only meaningful at stage granularity), and
// free-form attributes.
type SpanRecord struct {
	Type     string         `json:"type"` // always "span"
	Stage    string         `json:"stage"`
	StartSec float64        `json:"start_sec"` // offset from tracer start
	Seconds  float64        `json:"seconds"`
	Allocs   uint64         `json:"allocs"`
	Bytes    uint64         `json:"bytes"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// Span is an in-flight stage measurement.
type Span struct {
	t          *Tracer
	stage      string
	begin      time.Time
	mallocs    uint64
	allocBytes uint64
}

// NewTracer returns a tracer that streams completed spans to w as NDJSON
// and keeps them for the manifest; a nil w collects without streaming.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, start: time.Now(), retain: true}
}

// NewStreamTracer returns a tracer that only streams to w and keeps
// nothing, for a long-running owner that never builds a manifest (a
// daemon's access log): its memory stays flat however many spans and
// events pass through. Spans and Manifest report none.
func NewStreamTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, start: time.Now()}
}

// Start begins a span. Reading runtime.MemStats costs microseconds, which
// is why spans wrap whole pipeline stages, never per-frame work.
func (t *Tracer) Start(stage string) *Span {
	if t == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Span{t: t, stage: stage, begin: time.Now(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

// End completes the span, attaching attrs, and streams it if the tracer
// has a writer. Nil-safe.
func (s *Span) End(attrs map[string]any) {
	if s == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec := SpanRecord{
		Type:     "span",
		Stage:    s.stage,
		StartSec: s.begin.Sub(s.t.start).Seconds(),
		Seconds:  time.Since(s.begin).Seconds(),
		Allocs:   ms.Mallocs - s.mallocs,
		Bytes:    ms.TotalAlloc - s.allocBytes,
		Attrs:    sanitizeAttrs(attrs),
	}
	t := s.t
	t.mu.Lock()
	if t.retain {
		t.spans = append(t.spans, rec)
	}
	t.write(rec)
	t.mu.Unlock()
}

// Event records a one-off occurrence (e.g. a worker-pool run report) as an
// NDJSON line and, unless the tracer only streams, keeps it for the
// manifest. Nil-safe.
func (t *Tracer) Event(kind string, attrs map[string]any) {
	if t == nil {
		return
	}
	rec := map[string]any{"type": kind, "t_sec": time.Since(t.start).Seconds()}
	for k, v := range sanitizeAttrs(attrs) {
		rec[k] = v
	}
	t.mu.Lock()
	if t.retain {
		t.events = append(t.events, rec)
	}
	t.write(rec)
	t.mu.Unlock()
}

// write streams rec as one NDJSON line if the tracer has a writer, and
// keeps the first write error for Err. The caller holds mu.
func (t *Tracer) write(rec any) {
	if t.w == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if _, err := t.w.Write(append(b, '\n')); err != nil && t.err == nil {
		t.err = err
	}
}

// Err returns the first error writing the stream, or nil. A command that
// streams spans to a file reports it, so spans lost to a full disk fail
// the run rather than leave a silently truncated file. Nil-safe.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// sanitizeAttrs replaces non-finite floats, which encoding/json rejects,
// with their string spellings.
func sanitizeAttrs(attrs map[string]any) map[string]any {
	if attrs == nil {
		return nil
	}
	out := make(map[string]any, len(attrs))
	for k, v := range attrs {
		if f, ok := v.(float64); ok && (math.IsInf(f, 0) || math.IsNaN(f)) {
			out[k] = formatFloat(f)
			continue
		}
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// Context plumbing

type tracerKey struct{}

// ContextWithTracer attaches t to ctx; TracerFrom recovers it. A missing
// tracer yields nil, which every Tracer/Span method treats as a no-op, so
// library code can instrument unconditionally.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer attached to ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}
