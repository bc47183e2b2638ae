package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/obs"
)

func durations(n int) []time.Duration {
	lat := make([]time.Duration, n)
	for i := range lat {
		lat[i] = time.Duration(n-i) * time.Microsecond // reverse order: percentile sorts
	}
	return lat
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p     float64
		want  time.Duration
		wantP float64
	}{
		// 2000 samples: 20 lie beyond p99, so p99 itself is reported.
		{2000, 0.99, 1980 * time.Microsecond, 0.99},
		// 500 samples: only 5 beyond p99; the highest quantile with 10
		// beyond is the 490th sample.
		{500, 0.99, 490 * time.Microsecond, 0.98},
		// 10 samples: no quantile has 10 beyond, so the maximum.
		{10, 0.99, 10 * time.Microsecond, 1},
		{2000, 0.5, 1000 * time.Microsecond, 0.5},
		{25, 0.5, 13 * time.Microsecond, 0.5},
	} {
		v, p := percentile(durations(tc.n), tc.p)
		if v != tc.want || math.Abs(p-tc.wantP) > 1e-12 {
			t.Errorf("n=%d p%g: %v at p%.4f, want %v at p%.4f", tc.n, tc.p*100, v, p, tc.want, tc.wantP)
		}
	}
	if v, _ := percentile(nil, 0.99); v != 0 {
		t.Errorf("empty sample: %v", v)
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	lat := durations(2000)
	for i := 0; i < 30; i++ {
		lat[i] = failedLatency
	}
	if v, _ := percentile(lat, 0.99); v != failedLatency || ms(v) != math.MaxFloat64 {
		t.Errorf("30 failures in 2000: p99 %v, want the failure stand-in", v)
	}
}

func TestSlicerSpreadsWork(t *testing.T) {
	begin := time.Now()
	at := func(s float64) time.Time { return begin.Add(time.Duration(s * float64(time.Second))) }
	s := newSlicer(begin, 3*time.Second)
	s.add(at(0.5), at(2.5), 4) // a request spanning three slices
	s.add(at(1.2), at(1.2), 1) // an instantaneous one
	s.add(at(2.5), at(3.5), 2) // half of it after the window
	want := []float64{1, 3, 2}
	for i := range want {
		if math.Abs(s.counts[i]-want[i]) > 1e-9 {
			t.Fatalf("slices %v, want %v", s.counts, want)
		}
	}
	// The rate is the upper quartile of the seconds: two slow seconds of
	// eight do not move it, six do.
	s.counts = []float64{8, 1, 7, 6, 2, 5, 8, 7}
	if got := s.rate(); got != 7 {
		t.Errorf("rate with 2 slow seconds of 8 = %v, want 7", got)
	}
	s.counts = []float64{8, 1, 2, 1, 2, 1, 8, 2}
	if got := s.rate(); got != 2 {
		t.Errorf("rate with 6 slow seconds of 8 = %v, want 2", got)
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, sessions = 15000, 100
	window := 2 * time.Second
	a := poissonSchedule(7, rate, window, sessions)
	if b := poissonSchedule(7, rate, window, sessions); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, rate, window, sessions); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// The count is Poisson with mean rate*window: within 5 standard deviations.
	mean := rate * window.Seconds()
	if d := math.Abs(float64(len(a)) - mean); d > 5*math.Sqrt(mean) {
		t.Errorf("%d arrivals, want about %.0f", len(a), mean)
	}
	for i, x := range a {
		if x.due < 0 || x.due >= window || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v: not ascending inside the window", i, x.due)
		}
		if x.session < 0 || x.session >= sessions {
			t.Fatalf("arrival %d reads session %d of %d", i, x.session, sessions)
		}
	}
}

func parse(t *testing.T, text string) snapshot {
	t.Helper()
	fams, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return snapshot{fams: fams}
}

const expositionHead = `# HELP vbrsim_http_requests_total Requests.
# TYPE vbrsim_http_requests_total counter
`

func TestScrapeDeltas(t *testing.T) {
	before := parse(t, expositionHead+`vbrsim_http_requests_total{endpoint="frames",code="200"} 10
vbrsim_http_requests_total{endpoint="frames",code="404"} 1
# TYPE vbrsim_http_request_seconds histogram
vbrsim_http_request_seconds_bucket{endpoint="frames",le="0.001"} 100
vbrsim_http_request_seconds_bucket{endpoint="frames",le="0.01"} 100
vbrsim_http_request_seconds_bucket{endpoint="frames",le="+Inf"} 100
vbrsim_http_request_seconds_sum{endpoint="frames"} 0.05
vbrsim_http_request_seconds_count{endpoint="frames"} 100
`)
	after := parse(t, expositionHead+`vbrsim_http_requests_total{endpoint="frames",code="200"} 110
vbrsim_http_requests_total{endpoint="frames",code="404"} 3
vbrsim_http_requests_total{endpoint="step",code="500"} 4
# TYPE vbrsim_http_request_seconds histogram
vbrsim_http_request_seconds_bucket{endpoint="frames",le="0.001"} 100
vbrsim_http_request_seconds_bucket{endpoint="frames",le="0.01"} 200
vbrsim_http_request_seconds_bucket{endpoint="frames",le="+Inf"} 200
vbrsim_http_request_seconds_sum{endpoint="frames"} 0.6
vbrsim_http_request_seconds_count{endpoint="frames"} 200
vbrsim_http_request_seconds_bucket{endpoint="step",le="0.001"} 7
vbrsim_http_request_seconds_bucket{endpoint="step",le="0.01"} 7
vbrsim_http_request_seconds_bucket{endpoint="step",le="+Inf"} 7
vbrsim_http_request_seconds_sum{endpoint="step"} 0.001
vbrsim_http_request_seconds_count{endpoint="step"} 7
`)
	for _, tc := range []struct {
		labels []string
		want   float64
	}{
		{nil, 106},
		{[]string{`code="4`, `code="5`}, 6},
		{[]string{`endpoint="frames"`}, 102},
	} {
		if got := counterDelta(before, after, "vbrsim_http_requests_total", tc.labels...); got != tc.want {
			t.Errorf("requests delta over %q = %v, want %v", tc.labels, got, tc.want)
		}
	}
	if got := counterDelta(before, after, "vbrsim_absent_total"); got != 0 {
		t.Errorf("absent family delta = %v", got)
	}
	// The 100 frames requests of the window all fell in (1 ms, 10 ms]: the
	// interpolated median is 5.5 ms. Counting the earlier 100 as well would
	// put it at 1 ms.
	got, ok := histogramDeltaQuantile(before, after, "vbrsim_http_request_seconds", 0.5, `endpoint="frames"`)
	if !ok || math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("frames p50 delta = %v (%v), want 0.0055", got, ok)
	}
	if _, ok := histogramDeltaQuantile(before, after, "vbrsim_http_request_seconds", 0.5, `endpoint="jobs"`); ok {
		t.Error("quantile of an endpoint with no requests reported as present")
	}
}

func TestLadderArithmetic(t *testing.T) {
	for _, tc := range []struct{ call, raw, decode, want float64 }{
		{100, 80, 15, 5},  // rungs under the call
		{100, 95, 10, 5},  // rungs over the call: the residual is absolute
		{200, 150, 50, 0}, // closes exactly
		{0, 10, 10, 0},    // nothing timed
	} {
		if got := residualPct(tc.call, tc.raw, tc.decode); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("residualPct(%v, %v, %v) = %v, want %v", tc.call, tc.raw, tc.decode, got, tc.want)
		}
	}
	// A 4096-frame read whose handler took 10 µs more than 4096 frames at
	// 50 ns; a step round whose per-frame work is spread over 2 workers.
	if got := selfTime(214800, 50, 4096, 1); got != 10000 {
		t.Errorf("read self time = %v ns, want 10000", got)
	}
	if got := selfTime(112400, 50, 4096, 2); got != 10000 {
		t.Errorf("step self time = %v ns, want 10000", got)
	}
}

func TestTraceOverhead(t *testing.T) {
	for _, tc := range []struct{ untraced, traced, want float64 }{
		{200, 190, 5},  // traced run slower
		{200, 210, -5}, // traced run faster: host noise
		{0, 10, 0},     // no baseline
	} {
		if got := traceOverheadPct(tc.untraced, tc.traced); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("traceOverheadPct(%v, %v) = %v, want %v", tc.untraced, tc.traced, got, tc.want)
		}
	}
	dir := t.TempDir()
	write := func(name, text string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.jsonl", `{"workload":"w","metric":"frames_per_s","value":1,"unit":"frames/s"}
{"correct":true,"attempted":3,"failed":0,"metrics":{"frames_per_s":{"value":1.5e+07,"unit":"frames/s"},"setup_s":{"value":0.2,"unit":"s"}}}
`)
	if got, err := baselineRate(good); err != nil || got != 1.5e7 {
		t.Errorf("baselineRate = %v, %v; want 1.5e7 from the summary line", got, err)
	}
	traced := write("traced.jsonl", `{"correct":true,"attempted":3,"failed":0,"metrics":{"rng.norm_ns":{"value":13,"unit":"ns"}}}`)
	for _, path := range []string{traced, dir + "/absent.jsonl"} {
		if _, err := baselineRate(path); err == nil {
			t.Errorf("baselineRate(%s): no error", path)
		}
	}
}

// TestVerification checks both verification paths on TES sessions (cheap to
// regenerate): a right reference passes, a reference at the wrong seed and
// a gap in a session's reads both fail.
func TestVerification(t *testing.T) {
	ctx := context.Background()
	const n = 16
	var recs []record
	for s, seed := range []uint64{11, 12} {
		spec := tesSpec(seed)
		st, err := spec.OpenCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			fr := make([]float64, n)
			st.Fill(fr)
			recs = append(recs, record{session: s, seed: seed, start: k * n, hash: frameHash(fr)})
		}
		st.Close()
	}
	all := verificationSample(1, recs, len(recs), true)
	if v := regenerate(ctx, tesSpec, n, recs, all); v.bad != 0 || v.checked != len(recs) {
		t.Fatalf("right reference: %d of %d bad: %v", v.bad, v.checked, v.errs)
	}
	wrongSeed := func(seed uint64) modelspec.Spec { return tesSpec(seed + 1) }
	if v := regenerate(ctx, wrongSeed, n, recs, all); v.bad != len(recs) {
		t.Fatalf("wrong-seed reference: %d of %d bad, want all", v.bad, v.checked)
	}
	if v := checkContiguous(recs, 2, n); v.bad != 0 {
		t.Fatalf("contiguous reads reported bad: %v", v.errs)
	}
	gap := append([]record(nil), recs...)
	gap[1].start += n
	if v := checkContiguous(gap, 2, n); v.bad != 1 {
		t.Fatalf("a gap in session 0: %d bad, want 1", v.bad)
	}
}

func TestVerificationSample(t *testing.T) {
	var recs []record
	for i := 0; i < 1000; i++ {
		recs = append(recs, record{session: i % 10, start: i / 10})
	}
	a := verificationSample(5, recs, 256, true)
	if !reflect.DeepEqual(a, verificationSample(5, recs, 256, true)) {
		t.Fatal("same seed gave different samples")
	}
	if len(a) < 256 || len(a) > 266 {
		t.Fatalf("%d picks, want 256 plus at most one per session", len(a))
	}
	picked := map[int]bool{}
	for _, i := range a {
		picked[i] = true
	}
	for s := 0; s < 10; s++ {
		if !picked[990+s] {
			t.Errorf("last response of session %d not sampled", s)
		}
	}
}

// TestWorkloadsSmoke runs every workload for one second, untraced and then
// traced against the untraced output, and checks that each run verifies,
// reports exactly the metrics BENCHMARK.json names, and that the traced run
// prints its tracing overhead.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server under load for several seconds per workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := strings.Split(workloadNames(), ", "); !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}
	for _, name := range names {
		untraced := t.TempDir() + "/untraced.jsonl"
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", name, "-seed", "3", "-seconds", "1", "-trace", []string{"0", "1"}[trace]}
			if trace == 1 {
				args = append(args, "-spans", t.TempDir()+"/spans.jsonl", "-baseline", untraced)
			}
			if code := benchmark(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", name, trace, code, stderr.String())
			}
			if trace == 0 {
				if err := os.WriteFile(untraced, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if !strings.Contains(stdout.String(), `"metric":"trace_overhead_pct"`) {
				t.Errorf("%s: traced run printed no trace_overhead_pct", name)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d, %d metrics for %d named", name, trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
				if trace == 0 && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}
