package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	// Get-or-create returns the same collector.
	if r.Counter("test_total", "a counter") != c {
		t.Fatal("re-registration did not return the same counter")
	}
}

func TestRegisterTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type clash")
		}
	}()
	r.Gauge("clash_total", "h")
}

func TestCounterConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("concurrent_total", "h")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Fatalf("counter = %v, want 4000", got)
	}
}

func TestVecAndHistogramExposition(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("jobs_total", "jobs by kind", "kind")
	cv.With("fit").Add(2)
	cv.With("qsim").Inc()
	sv := r.SummaryVec("dur_seconds", "durations", "kind", "status")
	sv.Observe(0.25, "fit", "ok")
	sv.Observe(0.75, "fit", "ok")
	sv.Observe(1.5, "fit", "failed")
	h := r.Histogram("frames", "frames per request", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`jobs_total{kind="fit"} 2`,
		`jobs_total{kind="qsim"} 1`,
		`dur_seconds_sum{kind="fit",status="ok"} 1`,
		`dur_seconds_count{kind="fit",status="ok"} 2`,
		`dur_seconds_count{kind="fit",status="failed"} 1`,
		`frames_bucket{le="10"} 1`,
		`frames_bucket{le="100"} 2`,
		`frames_bucket{le="+Inf"} 3`,
		`frames_sum 5055`,
		`frames_count 3`,
		"# TYPE jobs_total counter",
		"# TYPE dur_seconds summary",
		"# TYPE frames histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// The output must parse and lint cleanly through our own parser.
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if probs := Lint(fams); len(probs) > 0 {
		t.Fatalf("lint problems: %v", probs)
	}
	if fams["jobs_total"].Type != "counter" || len(fams["jobs_total"].Samples) != 2 {
		t.Fatalf("jobs_total parsed wrong: %+v", fams["jobs_total"])
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("esc_total", "h", "path")
	cv.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WriteText(&b)
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", b.String())
	}
}

func TestFuncCollectorsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	hits := 7.0
	r.CounterFunc("cache_hits_total", "h", func() float64 { return hits })
	r.GaugeFunc("inf_gauge", "h", func() float64 { return math.Inf(1) })
	var b strings.Builder
	r.WriteText(&b)
	if !strings.Contains(b.String(), "cache_hits_total 7") {
		t.Fatalf("missing func counter:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "inf_gauge +Inf") {
		t.Fatalf("missing +Inf rendering:\n%s", b.String())
	}
	snap := r.Snapshot()
	if snap["cache_hits_total"] != 7.0 {
		t.Fatalf("snapshot hits = %v", snap["cache_hits_total"])
	}
	// Snapshot must be JSON-encodable even with non-finite values.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "h").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 1") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.DumpHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if m["served_total"] != 1.0 {
		t.Fatalf("dump served_total = %v", m["served_total"])
	}
}

func TestParserLintCatchesDuplicates(t *testing.T) {
	bad := "# HELP x h\n# TYPE x counter\nx 1\nx 2\n"
	if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
		t.Fatal("expected duplicate-sample error")
	}
	bad = "# HELP x h\n# TYPE x counter\n# TYPE x gauge\n"
	if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
		t.Fatal("expected duplicate-TYPE error")
	}
	bad = "x 1\n"
	if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
		t.Fatal("expected missing-TYPE error")
	}
}
