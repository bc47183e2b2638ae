package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"vbrsim/internal/mpegtrace"
)

func testTracePath(t *testing.T) string {
	t.Helper()
	tr, err := mpegtrace.Generate(mpegtrace.Config{Frames: 1 << 17, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunIS(t *testing.T) {
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-util", "0.6", "-buffer", "30", "-reps", "200", "-twist", "1.0"},
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"Importance sampling", "P(Q_k > b)", "variance reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPlainMC(t *testing.T) {
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-util", "0.8", "-buffer", "20", "-reps", "200", "-twist", "0"},
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Plain Monte Carlo") {
		t.Errorf("MC mode not reported:\n%s", stdout.String())
	}
}

func TestRunTraceDriven(t *testing.T) {
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-util", "0.7", "-buffer", "20", "-trace-driven"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "trace-driven steady state") {
		t.Errorf("trace-driven output missing:\n%s", stdout.String())
	}
}

func TestRunTraceDrivenWithBatches(t *testing.T) {
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-util", "0.7", "-buffer", "20", "-trace-driven", "-batches", "10"},
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "batch means (10 batches)") {
		t.Errorf("batch CI missing:\n%s", stdout.String())
	}
}

func TestRunSearch(t *testing.T) {
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-util", "0.4", "-buffer", "25", "-reps", "100", "-search"},
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "norm.var") {
		t.Errorf("search table missing:\n%s", stdout.String())
	}
}

func TestRunMultiplexed(t *testing.T) {
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-util", "0.8", "-buffer", "20", "-reps", "100", "-sources", "4"},
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "4 multiplexed sources") {
		t.Errorf("multiplexed output missing:\n%s", stdout.String())
	}
}

// TestRunFast pins the truncated-AR fast path's output at a fixed seed,
// for the importance-sampling and the multiplexed estimators, to what it
// printed when the truncation still pointed at its exact plan. The horizon
// (600) runs past the truncation order (329), so the frozen AR(p) law is
// exercised, not just the exact warm-up steps.
func TestRunFast(t *testing.T) {
	path := testTracePath(t)
	rows := []struct {
		args []string
		want string
	}{
		{
			[]string{"-util", "0.6", "-buffer", "30", "-twist", "1.0"},
			"fast path: truncated AR(329), max induced ACF error 0.053\n" +
				"Importance sampling, util 0.60, normalized buffer 30, k = 600, N = 200:\n" +
				"  P(Q_k > b) = 0.02464  (log10 -1.61)\n" +
				"  std err 0.00173, hits 122, normalized variance 0.991\n" +
				"  variance reduction vs plain MC: 40x\n",
		},
		{
			[]string{"-util", "0.6", "-buffer", "5", "-sources", "2"},
			"fast path: truncated AR(329), max induced ACF error 0.053\n" +
				"2 multiplexed sources, util 0.60, normalized buffer 5, k = 600:\n" +
				"  P(Q_k > b) = 0.02  (log10 -1.70), hits 4/200\n",
		},
	}
	for _, row := range rows {
		args := append([]string{"-i", path, "-fast", "-horizon", "600", "-reps", "200", "-seed", "5"}, row.args...)
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		if got := stdout.String(); got != row.want {
			t.Errorf("qsim %s:\ngot:\n%s\nwant:\n%s", strings.Join(row.args, " "), got, row.want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("missing input accepted")
	}
	path := testTracePath(t)
	if err := run([]string{"-i", path, "-util", "1.5", "-buffer", "10"}, &stdout, &stderr); err == nil {
		t.Error("bad utilization accepted")
	}
}

// TestRunObservability exercises the telemetry flags end to end: NDJSON
// convergence snapshots and spans on stderr, a parseable run manifest, a
// non-empty CPU profile — and bit-identical stdout with telemetry off.
func TestRunObservability(t *testing.T) {
	path := testTracePath(t)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.json")
	profile := filepath.Join(dir, "cpu.pprof")

	var plain, plainErr bytes.Buffer
	args := []string{"-i", path, "-util", "0.6", "-buffer", "30", "-reps", "200", "-twist", "1.0"}
	if err := run(args, &plain, &plainErr); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	instrumented := append([]string{}, args...)
	instrumented = append(instrumented,
		"-progress", "-progress-every", "50",
		"-trace-out", "-", "-manifest", manifest, "-cpuprofile", profile)
	if err := run(instrumented, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}

	if stdout.String() != plain.String() {
		t.Errorf("telemetry changed the estimate:\nplain:\n%s\ninstrumented:\n%s",
			plain.String(), stdout.String())
	}
	for _, want := range []string{`"type":"convergence"`, `"estimator":"is"`, `"type":"span"`, `"stage":"impsample.estimate"`} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Tool   string `json:"tool"`
		Seed   int64  `json:"seed"`
		Stages []struct {
			Stage string `json:"stage"`
		} `json:"stages"`
		Results map[string]any `json:"results"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if m.Tool != "qsim" || m.Seed != 1 {
		t.Errorf("manifest tool/seed = %q/%d", m.Tool, m.Seed)
	}
	stages := map[string]bool{}
	for _, s := range m.Stages {
		stages[s.Stage] = true
	}
	for _, want := range []string{"fit.hurst", "fit.acf", "fit.attenuation", "plan.acquire", "impsample.estimate"} {
		if !stages[want] {
			t.Errorf("manifest missing stage %q (have %v)", want, stages)
		}
	}
	if _, ok := m.Results["p"]; !ok {
		t.Errorf("manifest results missing p: %v", m.Results)
	}

	if fi, err := os.Stat(profile); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}
}

// TestRunTraceOutFullDevice streams the stage spans to /dev/full: the run
// must fail with the write error rather than exit cleanly with the spans
// lost.
func TestRunTraceOutFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-util", "0.6", "-buffer", "30", "-reps", "50", "-twist", "1.0", "-trace-out", "/dev/full"}, &stdout, &stderr)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("-trace-out /dev/full: %v, want ENOSPC", err)
	}
}
