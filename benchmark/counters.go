package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"vbrsim/internal/obs"
)

// runtimeMetrics are the Go runtime counters the traced run differences
// across its window.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
	"/sync/mutex/wait/total:seconds",
}

// snapshot is the state of the public counters at one instant: the
// server's /metrics page, parsed, and the Go runtime's metrics.
type snapshot struct {
	fams map[string]*obs.MetricFamily
	rt   map[string]metrics.Value
}

// scrape reads GET /metrics over the connection and the runtime metrics.
func scrape(cn *conn, base string) (snapshot, error) {
	resp, err := cn.http.Get(base + "/metrics")
	if err != nil {
		return snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snapshot{}, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return snapshot{}, fmt.Errorf("parse /metrics: %w", err)
	}
	return snapshot{fams: fams, rt: readRuntime()}, nil
}

func readRuntime() map[string]metrics.Value {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := make(map[string]metrics.Value, len(samples))
	for _, s := range samples {
		out[s.Name] = s.Value
	}
	return out
}

// matches reports whether a label block contains any of the substrings
// (every block when none are given).
func matches(labels string, subs []string) bool {
	if len(subs) == 0 {
		return true
	}
	for _, s := range subs {
		if strings.Contains(labels, s) {
			return true
		}
	}
	return false
}

// counterDelta is the change between two scrapes of the samples of family
// name (the plain samples, not histogram components) whose labels contain
// any of the given substrings.
func counterDelta(a, b snapshot, name string, labels ...string) float64 {
	sum := func(s snapshot) float64 {
		f := s.fams[name]
		if f == nil {
			return 0
		}
		var x float64
		for _, smp := range f.Samples {
			if smp.Name == name && matches(smp.Labels, labels) {
				x += smp.Value
			}
		}
		return x
	}
	return sum(b) - sum(a)
}

// histogramDeltaQuantile estimates quantile q of the observations histogram
// family name received between two scrapes, over the children whose labels
// contain any of the given substrings. The second result is false when
// there were none.
func histogramDeltaQuantile(a, b snapshot, name string, q float64, labels ...string) (float64, bool) {
	fb := b.fams[name]
	if fb == nil {
		return 0, false
	}
	before := map[string]float64{}
	if fa := a.fams[name]; fa != nil {
		for _, s := range fa.Samples {
			before[s.Name+s.Labels] = s.Value
		}
	}
	delta := &obs.MetricFamily{Name: name, Type: fb.Type}
	for _, s := range fb.Samples {
		if strings.HasSuffix(s.Name, "_bucket") && matches(s.Labels, labels) {
			s.Value -= before[s.Name+s.Labels]
			delta.Samples = append(delta.Samples, s)
		}
	}
	return obs.HistogramQuantile(delta, "", q)
}

// counters derives the traced run's count metrics from the scrapes taken
// before and after the workload's windows. Counters the server exports
// process-wide (plan cache) are read as totals since the process started,
// which covers the set-up and the windows.
func counters(a, b snapshot, m *measurement) []metric {
	var requests int
	var elapsed time.Duration
	var late []time.Duration
	for _, wd := range m.windows {
		requests += wd.attempted()
		elapsed += wd.elapsed
		late = append(late, wd.late...)
	}
	frames := counterDelta(a, b, "vbrsim_frames_streamed_total")
	hits := counterDelta(snapshot{}, b, "vbrsim_plan_cache_hits_total")
	misses := counterDelta(snapshot{}, b, "vbrsim_plan_cache_misses_total")
	busy := counterDelta(a, b, "vbrsim_par_busy_seconds_total")
	httpP99, _ := histogramDeltaQuantile(a, b, "vbrsim_http_request_seconds", 0.99, m.endpoint...)
	lateP99, _ := percentile(late, 0.99)
	gcCPU := runtimeDelta(a, b, "/cpu/classes/gc/total:cpu-seconds")
	allCPU := runtimeDelta(a, b, "/cpu/classes/total:cpu-seconds")
	procs := float64(runtime.GOMAXPROCS(0))
	return []metric{
		{Name: "streamblock.refills_per_kframe", Value: ratio(counterDelta(a, b, "vbrsim_streamblock_refills_total"), frames/1000), Unit: "1/kframe"},
		{Name: "statmon.sampled_fraction", Value: ratio(counterDelta(a, b, "vbrsim_statmon_frames_sampled_total"), frames), Unit: "ratio"},
		{Name: "hosking.plan_cache_hit_ratio", Value: ratio(hits, hits+misses), Unit: "ratio"},
		{Name: "server.requests_failed", Value: counterDelta(a, b, "vbrsim_http_requests_total", `code="4`, `code="5`), Unit: "count"},
		{Name: "server.admission_rejects", Value: counterDelta(a, b, "vbrsim_server_admission_rejects_total"), Unit: "count"},
		{Name: "server.http_p99_ms", Value: httpP99 * 1e3, Unit: "ms"},
		{Name: "par.busy_s", Value: busy, Unit: "s"},
		{Name: "par.utilization", Value: ratio(busy, elapsed.Seconds()*procs), Unit: "ratio"},
		{Name: "loadgen.late_p99_ms", Value: ms(lateP99), Unit: "ms"},
		{Name: "loadgen.spin_cpu_pct", Value: 100 * ratio(m.latency.spin.Seconds(), m.latency.elapsed.Seconds()*procs), Unit: "%"},
		{Name: "go.alloc_bytes_per_req", Value: ratio(runtimeDelta(a, b, "/gc/heap/allocs:bytes"), float64(requests)), Unit: "B/req"},
		{Name: "go.gc_cpu_pct", Value: 100 * ratio(gcCPU, allCPU), Unit: "%"},
		{Name: "go.sched_wait_p99_us", Value: runtimeHistogramQuantile(a, b, "/sched/latencies:seconds", 0.99) * 1e6, Unit: "us"},
		{Name: "go.mutex_wait_s", Value: runtimeDelta(a, b, "/sync/mutex/wait/total:seconds"), Unit: "s"},
	}
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeDelta is the change of a scalar runtime metric between snapshots.
func runtimeDelta(a, b snapshot, name string) float64 {
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return val(b.rt[name]) - val(a.rt[name])
}

// runtimeHistogramQuantile is quantile q of the observations a runtime
// histogram metric received between snapshots: the upper edge of the bucket
// the quantile falls in (its lower edge when that is unbounded).
func runtimeHistogramQuantile(a, b snapshot, name string, q float64) float64 {
	hb := b.rt[name]
	if hb.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	after := hb.Float64Histogram()
	var prev []uint64
	if ha := a.rt[name]; ha.Kind() == metrics.KindFloat64Histogram {
		prev = ha.Float64Histogram().Counts
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		if i < len(prev) {
			c -= prev[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}
