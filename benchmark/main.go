// Command benchmark is the serving benchmark for trafficd. It starts the
// real server (server.New behind an http.Server on 127.0.0.1:0) in-process,
// drives it with one of four workloads through client.Client over loopback
// TCP with at most GOMAXPROCS client goroutines and connections, verifies
// the served frames against offline generation (modelspec.Spec.Frames), and
// prints one JSON line per metric followed by a summary line.
//
// Usage:
//
//	go build -o bench . && ./bench -workload stream-long -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the summary carries the end-to-end metrics. With -trace 1 a
// separate traced run reports per-layer metrics instead: counter deltas
// across the window and a ladder that times each layer from outside by
// calling its public functions on shadow objects at the same (seed,
// position), writing the spans it recorded to -spans. Given the untraced
// run's output at the same seed (-baseline), the traced run also prints the
// tracing overhead. See README.md for the metrics and what each workload is
// for.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vbrsim/internal/modelspec"
)

func main() {
	os.Exit(benchmark(os.Args[1:], os.Stdout, os.Stderr))
}

// run is one invocation's state.
type run struct {
	ctx       context.Context
	w         *workload
	seed      uint64
	seeds     []uint64 // session seeds of the fleet opened at set-up
	window    time.Duration
	traced    bool
	baseline  float64 // frames_per_s of the untraced run at this seed; 0 when not given
	setupReps int
	epoch     time.Time
}

// metric is one reported number. Samples and Percentile are set on latency
// metrics only: the window's sample count and the percentile reported,
// lower than the one named when too few samples lie beyond it (see
// percentile).
type metric struct {
	Name       string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// outcome is what one invocation reports.
type outcome struct {
	attempted int
	failed    int
	endToEnd  []metric
	perLayer  []metric
	extra     []metric
	spans     []span
	errs      []string
}

// setupReps is how many times an untraced run builds its fleet from cold;
// setup_s is the median.
const setupReps = 5

// benchmark runs one invocation and returns the process exit code: 0 when
// every operation and verification succeeded, 1 on any failure, 2 on bad
// flags.
func benchmark(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stream-long, stream-short, step-fleet or session-churn")
	seed := fs.Uint64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	spans := fs.String("spans", "", "traced run: write spans here as JSON lines (default .bench_build/spans/<workload>-<seed>.jsonl)")
	baseline := fs.String("baseline", "", "traced run: the untraced run's output at the same seed, to report trace_overhead_pct against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	r := &run{
		ctx:       context.Background(),
		w:         w,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		traced:    *trace == 1,
		setupReps: setupReps,
		epoch:     time.Now(),
	}
	if r.traced {
		r.setupReps = 1
	}
	if *baseline != "" {
		var err error
		if r.baseline, err = baselineRate(*baseline); err != nil {
			fmt.Fprintf(stderr, "benchmark: -baseline: %v\n", err)
			return 2
		}
	}
	out, err := r.execute()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if r.traced {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, r.seed))
		}
		if err := writeSpans(path, r.epoch, out.spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "benchmark: wrote %d spans to %s\n", len(out.spans), path)
	}
	for _, e := range out.errs {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.name, e)
	}
	report(stdout, w.name, r.traced, out)
	if out.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report prints one JSON line per metric and then the summary line. A
// traced run prints its end-to-end lines too, measured with tracing on, but
// its summary carries the per-layer metrics.
func report(stdout io.Writer, workload string, traced bool, out *outcome) {
	enc := json.NewEncoder(stdout)
	type line struct {
		Workload string `json:"workload"`
		metric
	}
	reported := out.endToEnd
	if traced {
		reported = out.perLayer
	}
	for _, set := range [][]metric{out.endToEnd, out.perLayer, out.extra} {
		for _, m := range set {
			enc.Encode(line{Workload: workload, metric: m})
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range reported {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	enc.Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
}

// execute sets the fleet up, measures, verifies and, when traced, runs the
// ladder.
func (r *run) execute() (*outcome, error) {
	w := r.w
	r.seeds = sessionSeeds(r.seed, w.sessions)
	specs := make([]modelspec.Spec, len(r.seeds))
	for i, s := range r.seeds {
		specs[i] = w.spec(s)
	}
	f, setupTimes, heapMB, err := setUp(r.ctx, r.setupReps, w.sessions+ladderSessions, runtime.GOMAXPROCS(0), specs)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer f.close()

	var before snapshot
	if r.traced {
		if before, err = scrape(f.conns[0], f.h.base); err != nil {
			return nil, err
		}
	}
	m, err := w.measure(r, f)
	if err != nil {
		return nil, err
	}
	out := &outcome{extra: m.extra}
	for _, wd := range m.windows {
		out.attempted += wd.attempted()
		out.failed += wd.failed()
	}
	var after snapshot
	if r.traced {
		if after, err = scrape(f.conns[0], f.h.base); err != nil {
			return nil, err
		}
	}

	v := m.verify()
	out.attempted += v.checked
	out.failed += v.bad
	out.errs = append(out.errs, v.errs...)

	latency := func(name string, p float64) metric {
		v, reported := percentile(m.latency.lat, p)
		return metric{Name: name, Value: ms(v), Unit: "ms", Samples: len(m.latency.lat), Percentile: reported}
	}
	rate := m.rate.slices.rate()
	out.endToEnd = []metric{
		{Name: "setup_s", Value: median(setupTimes), Unit: "s"},
		{Name: "frames_per_s", Value: rate, Unit: "frames/s"},
		{Name: "heap_live_mb", Value: heapMB, Unit: "MiB"},
	}
	// Latencies are printed but not gated: on the reference host each of
	// them spread by more than a quarter of its value from run to run on
	// some workload, more than any bound the benchmark may set
	// (CALIBRATION.json).
	out.extra = append(out.extra,
		latency("req_p50_ms", 0.5),
		latency("req_p90_ms", 0.9),
		latency("req_p99_ms", 0.99),
		metric{Name: "error_ratio", Value: float64(out.failed) / float64(max(out.attempted, 1)), Unit: "ratio"},
		metric{Name: "client_goroutines", Value: float64(len(f.conns)), Unit: "count"},
		metric{Name: "connections_dialed", Value: float64(f.h.dialed.Load()), Unit: "count"},
	)
	if r.traced && r.baseline > 0 {
		out.extra = append(out.extra, metric{Name: "trace_overhead_pct", Value: traceOverheadPct(r.baseline, rate), Unit: "%"})
	}
	if r.traced {
		out.perLayer = counters(before, after, m)
		l := &ladder{r: r, f: f}
		if err := l.run(); err != nil {
			out.failed++
			out.errs = append(out.errs, "ladder: "+err.Error())
		}
		out.perLayer = append(out.perLayer, l.metrics...)
		out.spans = append(out.spans, l.spans...)
	}
	return out, nil
}

// baselineRate reads frames_per_s from the summary line (the last line) of
// an untraced run's output.
func baselineRate(path string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var summary struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		return 0, fmt.Errorf("%s: last line: %w", path, err)
	}
	fps, ok := summary.Metrics["frames_per_s"]
	if !ok || fps.Value <= 0 {
		return 0, fmt.Errorf("%s: summary has no positive frames_per_s", path)
	}
	return fps.Value, nil
}

// writeSpans writes the traced run's spans as JSON lines, times in
// nanoseconds since the run started.
func writeSpans(path string, epoch time.Time, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		enc.Encode(struct {
			ReqID  string `json:"req_id"`
			Name   string `json:"name"`
			Start  int64  `json:"start"`
			End    int64  `json:"end"`
			Parent string `json:"parent,omitempty"`
		}{fmt.Sprintf("r%d", s.req), s.name, s.start.Sub(epoch).Nanoseconds(), s.end.Sub(epoch).Nanoseconds(), s.parent})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
