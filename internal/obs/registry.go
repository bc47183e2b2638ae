// Package obs is the unified, dependency-free observability layer shared by
// trafficd and the offline CLIs: a process-wide metrics registry rendered in
// Prometheus text exposition format, lightweight span tracing of the
// modeling pipeline with NDJSON emission and a run-manifest rollup, and
// estimator convergence telemetry (running p-hat, standard error,
// normalized variance, IS-vs-MC variance ratio).
//
// Everything here is stdlib-only and determinism-neutral: telemetry reads
// clocks and counters but never touches seeds, replication order, or any
// value that feeds a result, so enabling it cannot change a generated
// frame or an estimate by a single bit.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry: trafficd serves it on /metrics and
// the CLIs fold a snapshot of it into their run manifests, so both surfaces
// report through one set of counters.
var Default = NewRegistry()

// Registry is a set of named metric families rendered in Prometheus text
// exposition format. Registration is get-or-create: asking twice for the
// same name returns the same collector, so packages can idempotently attach
// their metrics without coordinating init order.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help, typ string
	coll            collector
}

// collector renders a family's sample lines (everything below HELP/TYPE).
type collector interface {
	samples(name string) []sampleLine
}

type sampleLine struct {
	suffix string // appended to the family name ("", "_sum", "_count", "_bucket")
	labels string // rendered label block including braces, or ""
	value  float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the existing family for name or creates one via mk.
// A name reused with a different metric type is a programmer error.
func (r *Registry) register(name, help, typ string, mk func() collector) collector {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
		}
		return f.coll
	}
	f := &family{name: name, help: help, typ: typ, coll: mk()}
	r.families[name] = f
	return f.coll
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Collectors

// Counter is a monotonically increasing float64 (Prometheus counters are
// floats; fractional increments carry e.g. busy seconds). Adds are lock-free.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter. Negative deltas are a programmer error and are
// ignored rather than corrupting monotonicity.
func (c *Counter) Add(v float64) {
	if v < 0 || c == nil {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *Counter) samples(string) []sampleLine {
	return []sampleLine{{value: c.Value()}}
}

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) samples(string) []sampleLine {
	return []sampleLine{{value: g.Value()}}
}

// funcCollector renders a value read at scrape time (used to surface
// counters owned elsewhere, e.g. the plan cache, without copying them).
type funcCollector struct {
	fn func() float64
}

func (f funcCollector) samples(string) []sampleLine {
	return []sampleLine{{value: f.fn()}}
}

// vec is the shared child table behind labeled collectors.
type vec struct {
	mu       sync.Mutex
	labels   []string
	children map[string]any // keyed by rendered label block
	mk       func() any
}

func newVec(labels []string, mk func() any) *vec {
	return &vec{labels: labels, children: make(map[string]any), mk: mk}
}

func (v *vec) with(values ...string) any {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: vec expects %d label values, got %d", len(v.labels), len(values)))
	}
	key := renderLabels(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = v.mk()
		v.children[key] = c
	}
	return c
}

func (v *vec) sortedKeys() []string {
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func renderLabels(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// CounterVec is a family of counters split by a fixed label set.
type CounterVec struct {
	v *vec
}

// With returns the child counter for the given label values (in the order
// the labels were declared), creating it on first use.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.v.with(values...).(*Counter)
}

func (cv *CounterVec) samples(string) []sampleLine {
	cv.v.mu.Lock()
	defer cv.v.mu.Unlock()
	out := make([]sampleLine, 0, len(cv.v.children))
	for _, k := range cv.v.sortedKeys() {
		out = append(out, sampleLine{labels: k, value: cv.v.children[k].(*Counter).Value()})
	}
	return out
}

// SummaryVec is a family of (sum, count) pairs split by a fixed label set —
// the minimal Prometheus summary (no quantiles), enough for rate/latency
// arithmetic on the scrape side.
type SummaryVec struct {
	v *vec
}

type summary struct {
	mu    sync.Mutex
	sum   float64
	count uint64
}

// Observe records one measurement under the given label values.
func (sv *SummaryVec) Observe(x float64, values ...string) {
	s := sv.v.with(values...).(*summary)
	s.mu.Lock()
	s.sum += x
	s.count++
	s.mu.Unlock()
}

func (sv *SummaryVec) samples(string) []sampleLine {
	sv.v.mu.Lock()
	defer sv.v.mu.Unlock()
	out := make([]sampleLine, 0, 2*len(sv.v.children))
	for _, k := range sv.v.sortedKeys() {
		s := sv.v.children[k].(*summary)
		s.mu.Lock()
		sum, count := s.sum, s.count
		s.mu.Unlock()
		out = append(out,
			sampleLine{suffix: "_sum", labels: k, value: sum},
			sampleLine{suffix: "_count", labels: k, value: float64(count)})
	}
	return out
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; a +Inf bucket is implicit.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // per-bucket (non-cumulative), len(bounds)+1
	sum    float64
	n      uint64
}

// Observe records one measurement.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i]++
	h.sum += x
	h.n++
	h.mu.Unlock()
}

func (h *Histogram) samples(string) []sampleLine {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]sampleLine, 0, len(h.bounds)+3)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		out = append(out, sampleLine{
			suffix: "_bucket",
			labels: `{le="` + formatFloat(b) + `"}`,
			value:  float64(cum),
		})
	}
	cum += h.counts[len(h.bounds)]
	out = append(out,
		sampleLine{suffix: "_bucket", labels: `{le="+Inf"}`, value: float64(cum)},
		sampleLine{suffix: "_sum", value: h.sum},
		sampleLine{suffix: "_count", value: float64(h.n)})
	return out
}

// Quantile estimates the q-quantile by linear interpolation inside the
// owning bucket — the same estimate PromQL's histogram_quantile computes on
// an instant vector. Observations in the +Inf bucket clamp to the highest
// finite bound. Returns NaN when the histogram is empty or q is outside
// [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 || q < 0 || q > 1 || len(h.bounds) == 0 {
		return math.NaN()
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		cum += float64(c)
		if cum >= target && c > 0 {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			} else if h.bounds[0] < 0 {
				lo = h.bounds[0]
			}
			frac := (target - (cum - float64(c))) / float64(c)
			return lo + (h.bounds[i]-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramVec is a family of fixed-bucket histograms split by a label set;
// every child shares the same bucket bounds.
type HistogramVec struct {
	bounds []float64
	v      *vec
}

// With returns the child histogram for the given label values (in the order
// the labels were declared), creating it on first use.
func (hv *HistogramVec) With(values ...string) *Histogram {
	return hv.v.with(values...).(*Histogram)
}

func (hv *HistogramVec) samples(string) []sampleLine {
	hv.v.mu.Lock()
	defer hv.v.mu.Unlock()
	out := make([]sampleLine, 0, (len(hv.bounds)+3)*len(hv.v.children))
	for _, k := range hv.v.sortedKeys() {
		h := hv.v.children[k].(*Histogram)
		h.mu.Lock()
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			out = append(out, sampleLine{
				suffix: "_bucket",
				labels: mergeLE(k, formatFloat(b)),
				value:  float64(cum),
			})
		}
		cum += h.counts[len(h.bounds)]
		out = append(out,
			sampleLine{suffix: "_bucket", labels: mergeLE(k, "+Inf"), value: float64(cum)},
			sampleLine{suffix: "_sum", labels: k, value: h.sum},
			sampleLine{suffix: "_count", labels: k, value: float64(h.n)})
		h.mu.Unlock()
	}
	return out
}

// mergeLE splices an le label into a rendered label block: {a="b"} becomes
// {a="b",le="0.01"}.
func mergeLE(labelBlock, le string) string {
	return labelBlock[:len(labelBlock)-1] + `,le="` + le + `"}`
}

// ---------------------------------------------------------------------------
// Registration

// Counter returns (creating if needed) the counter registered under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", func() collector { return &Counter{} }).(*Counter)
}

// Gauge returns (creating if needed) the gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", func() collector { return &Gauge{} }).(*Gauge)
}

// CounterVec returns a counter family split by the given labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.register(name, help, "counter", func() collector {
		return &CounterVec{v: newVec(labels, func() any { return &Counter{} })}
	}).(*CounterVec)
}

// SummaryVec returns a (sum, count) summary family split by the given labels.
func (r *Registry) SummaryVec(name, help string, labels ...string) *SummaryVec {
	return r.register(name, help, "summary", func() collector {
		return &SummaryVec{v: newVec(labels, func() any { return &summary{} })}
	}).(*SummaryVec)
}

// Histogram returns a fixed-bucket histogram; bounds must ascend.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	bounds = checkBounds(bounds)
	return r.register(name, help, "histogram", func() collector {
		return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}).(*Histogram)
}

// HistogramVec returns a histogram family split by the given labels, every
// child sharing the same bucket bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	bounds = checkBounds(bounds)
	return r.register(name, help, "histogram", func() collector {
		return &HistogramVec{bounds: bounds, v: newVec(labels, func() any {
			return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		})}
	}).(*HistogramVec)
}

// checkBounds validates ascending bucket bounds and returns a private copy
// with any caller-supplied trailing +Inf bound stripped: the exposition
// renderer always appends the implicit +Inf bucket, so keeping an explicit
// one would emit two le="+Inf" lines — a duplicate sample ParseExposition
// rejects (found by the registry race test scraping such a histogram).
func checkBounds(bounds []float64) []float64 {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	bounds = append([]float64(nil), bounds...)
	if n := len(bounds); n > 0 && math.IsInf(bounds[n-1], 1) {
		bounds = bounds[:n-1]
	}
	return bounds
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time; use it to surface monotone counters owned by another package.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", func() collector { return funcCollector{fn: fn} })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func() collector { return funcCollector{fn: fn} })
}

// ---------------------------------------------------------------------------
// Rendering

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, one HELP and TYPE line each,
// then the samples. Empty vec families still render their HELP/TYPE header
// so dashboards and scrape gates can discover every documented series.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.coll.samples(f.name) {
			b.WriteString(f.name)
			b.WriteString(s.suffix)
			b.WriteString(s.labels)
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, with the special values spelled +Inf/-Inf/NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot returns the registry as a plain name -> value map (labeled
// families become nested maps keyed by the rendered label block). This is
// the /debug/vars-style dump and what CLI run manifests embed.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()

	out := make(map[string]any, len(fams))
	for _, f := range fams {
		lines := f.coll.samples(f.name)
		if len(lines) == 1 && lines[0].suffix == "" && lines[0].labels == "" {
			out[f.name] = sanitizeFloat(lines[0].value)
			continue
		}
		m := make(map[string]any, len(lines))
		for _, s := range lines {
			m[s.suffix+s.labels] = sanitizeFloat(s.value)
		}
		out[f.name] = m
	}
	return out
}

// sanitizeFloat makes a value JSON-encodable: non-finite floats become
// strings (encoding/json rejects +Inf and NaN).
func sanitizeFloat(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return formatFloat(v)
	}
	return v
}

// Handler serves the text exposition (mount at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// DumpHandler serves the Snapshot as indented JSON (mount at /debug/vars).
func (r *Registry) DumpHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
}
