package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryScrapeRace hammers every collector kind from concurrent
// writers while scraping, parsing, and linting the exposition in a loop.
// Under -race this proves the snapshot path takes every lock it must; the
// parse step additionally guards against torn or duplicate sample lines.
//
// The histogram is deliberately registered with an explicit trailing +Inf
// bound: before checkBounds stripped it, that spelling rendered two
// le="+Inf" lines and ParseExposition rejected its own server's scrape as a
// duplicate sample — exactly the failure this test first uncovered.
func TestRegistryScrapeRace(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("race_ops_total", "ops")
	g := reg.Gauge("race_in_flight", "in flight")
	cv := reg.CounterVec("race_requests_total", "requests", "endpoint", "code")
	h := reg.Histogram("race_latency_seconds", "latency",
		[]float64{0.001, 0.01, 0.1, 1, math.Inf(1)})
	hv := reg.HistogramVec("race_request_seconds", "request latency",
		[]float64{0.001, 0.01, 0.1, 1}, "endpoint")
	reg.GaugeFunc("race_func_gauge", "func gauge", func() float64 { return 42 })

	var stop atomic.Bool
	var wg sync.WaitGroup
	endpoints := []string{"frames", "step", "create"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The loop body runs at least once before checking stop, so the
			// final assertions below see every label set even if the scrape
			// loop finishes before this goroutine is first scheduled.
			for i := 0; ; i++ {
				c.Inc()
				g.Add(1)
				ep := endpoints[i%len(endpoints)]
				cv.With(ep, "200").Inc()
				h.Observe(float64(i%100) / 50)
				hv.With(ep).Observe(float64(i%100) / 50)
				_ = h.Quantile(0.99)
				g.Add(-1)
				if stop.Load() {
					return
				}
			}
		}(w)
	}

	for i := 0; i < 200; i++ {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		fams, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("scrape %d failed to parse: %v", i, err)
		}
		if probs := Lint(fams); len(probs) > 0 {
			t.Fatalf("scrape %d lint: %v", i, probs)
		}
		reg.Snapshot()
	}
	stop.Store(true)
	wg.Wait()

	// Final scrape: the explicit-+Inf histogram must render exactly one
	// +Inf bucket and the vec children must carry merged le labels.
	var b strings.Builder
	reg.WriteText(&b)
	text := b.String()
	if n := strings.Count(text, `race_latency_seconds_bucket{le="+Inf"}`); n != 1 {
		t.Errorf("explicit-+Inf histogram rendered %d +Inf buckets, want 1", n)
	}
	if !strings.Contains(text, `race_request_seconds_bucket{endpoint="frames",le="+Inf"}`) {
		t.Errorf("histogram vec missing merged le label:\n%s", text)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", "x", []float64{1, 2, 4, 8})
	// 100 observations uniform over (0, 4]: quantiles land mid-bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 25)
	}
	if q := h.Quantile(0.5); math.Abs(q-2) > 0.1 {
		t.Errorf("p50 = %v, want ~2", q)
	}
	if q := h.Quantile(1); q != 4 {
		t.Errorf("p100 = %v, want 4", q)
	}
	if !math.IsNaN(reg.Histogram("q2_seconds", "x", []float64{1}).Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(100) // lands in +Inf bucket
	if q := h.Quantile(0.9999); q != 8 {
		t.Errorf("+Inf-bucket quantile = %v, want clamp to 8", q)
	}
}

func TestHistogramQuantileFromExposition(t *testing.T) {
	reg := NewRegistry()
	hv := reg.HistogramVec("lat_seconds", "x", []float64{0.5, 1, 2, 4}, "endpoint")
	for i := 1; i <= 100; i++ {
		hv.With("frames").Observe(float64(i) / 25)
		hv.With("step").Observe(0.1)
	}
	var b strings.Builder
	reg.WriteText(&b)
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	q, ok := HistogramQuantile(fams["lat_seconds"], `endpoint="frames"`, 0.5)
	if !ok || math.Abs(q-2) > 0.2 {
		t.Errorf("frames p50 = %v ok=%v, want ~2", q, ok)
	}
	q, ok = HistogramQuantile(fams["lat_seconds"], `endpoint="step"`, 0.99)
	if !ok || q > 0.5 {
		t.Errorf("step p99 = %v ok=%v, want <= 0.5", q, ok)
	}
	if _, ok := HistogramQuantile(fams["lat_seconds"], `endpoint="nope"`, 0.5); ok {
		t.Error("quantile for absent label set should report !ok")
	}
	if _, ok := HistogramQuantile(nil, "", 0.5); ok {
		t.Error("nil family should report !ok")
	}
}
