package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("fit")
	sp.End(map[string]any{"k": 1}) // must not panic
	tr.Event("par.run", nil)
	if got := tr.Manifest("t", nil, 0, nil, nil).Stages; got != nil {
		t.Fatalf("nil tracer spans = %v", got)
	}
	if TracerFrom(context.Background()) != nil {
		t.Fatal("empty context should yield nil tracer")
	}
}

func TestTracerStreamsNDJSON(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(&buf)
	sp := tr.Start("plan")
	_ = make([]float64, 4096) // guarantee a nonzero alloc delta
	sp.End(map[string]any{"n": 4096, "hit": true})
	tr.Event("par.run", map[string]any{"workers": 4})

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q not JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON lines, want 2", len(lines))
	}
	if lines[0]["type"] != "span" || lines[0]["stage"] != "plan" {
		t.Fatalf("span line = %v", lines[0])
	}
	attrs := lines[0]["attrs"].(map[string]any)
	if attrs["n"] != 4096.0 || attrs["hit"] != true {
		t.Fatalf("attrs = %v", attrs)
	}
	if lines[1]["type"] != "par.run" || lines[1]["workers"] != 4.0 {
		t.Fatalf("event line = %v", lines[1])
	}

	spans := tr.Manifest("t", nil, 0, nil, nil).Stages
	if len(spans) != 1 || spans[0].Stage != "plan" || spans[0].Seconds < 0 {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestStreamTracerKeepsNothing checks the streaming-only tracer writes the
// same lines as a retaining one but keeps no spans or events.
func TestStreamTracerKeepsNothing(t *testing.T) {
	var buf strings.Builder
	tr := NewStreamTracer(&buf)
	for i := 0; i < 100; i++ {
		tr.Start("plan").End(nil)
		tr.Event("access", map[string]any{"i": i})
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 200 {
		t.Fatalf("streamed %d lines, want 200", lines)
	}
	m := tr.Manifest("trafficd", nil, 0, nil, nil)
	if len(m.Stages) != 0 || len(m.Events) != 0 {
		t.Fatalf("stream tracer kept %d spans, %d events", len(m.Stages), len(m.Events))
	}
}

func TestTracerContextRoundTrip(t *testing.T) {
	tr := NewTracer(nil)
	ctx := ContextWithTracer(context.Background(), tr)
	if TracerFrom(ctx) != tr {
		t.Fatal("tracer did not round-trip through context")
	}
	// Collect-only tracer still records spans.
	TracerFrom(ctx).Start("gen").End(nil)
	if spans := tr.Manifest("t", nil, 0, nil, nil).Stages; len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestManifestRollup(t *testing.T) {
	tr := NewTracer(nil)
	tr.Start("fit").End(map[string]any{"lags": 24})
	tr.Start("queue").End(nil)
	reg := NewRegistry()
	reg.Counter("runs_total", "h").Inc()

	m := tr.Manifest("qsim", []string{"-reps", "100"}, 42,
		map[string]any{"p": 1e-6}, reg)
	if m.Tool != "qsim" || m.Seed != 42 || len(m.Stages) != 2 {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Stages[0].Stage != "fit" || m.Stages[1].Stage != "queue" {
		t.Fatalf("stage order = %+v", m.Stages)
	}
	if m.Metrics["runs_total"] != 1.0 {
		t.Fatalf("metrics snapshot = %v", m.Metrics)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("manifest not JSON-encodable: %v", err)
	}
	if !strings.Contains(string(b), `"stages"`) {
		t.Fatalf("manifest JSON missing stages: %s", b)
	}
}

// TestTracerKeepsFirstWriteError streams spans to /dev/full, where every
// write fails with ENOSPC: Err must report that error, and a tracer whose
// writes succeed reports none.
func TestTracerKeepsFirstWriteError(t *testing.T) {
	var buf strings.Builder
	ok := NewTracer(&buf)
	ok.Start("plan").End(nil)
	if err := ok.Err(); err != nil || buf.Len() == 0 {
		t.Fatalf("tracer into a buffer: Err %v, %d bytes", err, buf.Len())
	}
	if (*Tracer)(nil).Err() != nil {
		t.Fatal("nil tracer reports an error")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := NewTracer(f)
	tr.Start("plan").End(nil)
	tr.Event("par.run", map[string]any{"workers": 4})
	if err := tr.Err(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("spans to /dev/full: Err %v, want ENOSPC", err)
	}
	if got := len(tr.Manifest("t", nil, 0, nil, nil).Stages); got != 1 {
		t.Errorf("manifest keeps %d spans after the failed writes, want 1", got)
	}
}
