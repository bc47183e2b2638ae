package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestMeterPlainMC(t *testing.T) {
	var snaps []Convergence
	m := NewMeter("mc", 100, 10, func(c Convergence) { snaps = append(snaps, c) })
	hits := 0
	for i := 0; i < 100; i++ {
		hit := i%4 == 0 // p = 0.25
		if hit {
			hits++
		}
		if hit {
			m.Add(1, true)
		} else {
			m.Add(0, false)
		}
	}
	m.Finish() // should be a no-op: 100 % 10 == 0
	if len(snaps) != 10 {
		t.Fatalf("got %d snapshots, want 10", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Completed != 100 || last.Hits != hits {
		t.Fatalf("last = %+v", last)
	}
	if math.Abs(last.P-0.25) > 1e-12 {
		t.Fatalf("p = %v, want 0.25", last.P)
	}
	// For indicator weights the variance is p(1-p), so the MC-vs-self
	// variance ratio must be exactly 1.
	if math.Abs(last.VarianceRatio-1) > 1e-9 {
		t.Fatalf("variance ratio = %v, want 1", last.VarianceRatio)
	}
	wantSE := math.Sqrt(0.25 * 0.75 / 100)
	if math.Abs(last.StdErr-wantSE) > 1e-12 {
		t.Fatalf("stderr = %v, want %v", last.StdErr, wantSE)
	}
}

func TestMeterISWeights(t *testing.T) {
	var c Convergence
	m := NewMeter("is", 4, 100, func(s Convergence) { c = s }) // emits at completion
	m.Add(2e-6, true)
	m.Add(0, false)
	m.Add(6e-6, true)
	m.Add(0, false)
	if c.Completed != 4 || c.Hits != 2 {
		t.Fatalf("snapshot = %+v", c)
	}
	wantP := 2e-6
	if math.Abs(c.P-wantP) > 1e-18 {
		t.Fatalf("p = %v, want %v", c.P, wantP)
	}
	// NormVar finite and large, ratio >> 1 for a rare event with good IS.
	if c.NormVar <= 0 || math.IsInf(c.NormVar, 0) {
		t.Fatalf("normvar = %v", c.NormVar)
	}
	if c.VarianceRatio < 1000 {
		t.Fatalf("variance ratio = %v, want large", c.VarianceRatio)
	}
}

func TestMeterFinishEmitsPartial(t *testing.T) {
	var snaps []Convergence
	m := NewMeter("mc", 100, 64, func(c Convergence) { snaps = append(snaps, c) })
	for i := 0; i < 10; i++ { // cancelled early, never reaches an emit point
		m.Add(0, false)
	}
	m.Finish()
	if len(snaps) != 1 || snaps[0].Completed != 10 {
		t.Fatalf("snaps = %+v", snaps)
	}
}

func TestConvergenceJSONInfAsNull(t *testing.T) {
	c := Convergence{
		Estimator: "mc", Completed: 10, Total: 100,
		P: 0, StdErr: 0, NormVar: math.Inf(1), VarianceRatio: math.NaN(),
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"type":"convergence"`, `"norm_var":null`, `"variance_ratio":null`, `"p":0`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON %s missing %q", s, want)
		}
	}
}

func TestNilMeterIsNoOp(t *testing.T) {
	var m *Meter
	m.Add(1, true)
	m.Finish()
}

func TestProgressWriterWholeLines(t *testing.T) {
	var buf strings.Builder
	emit := ProgressWriter(&buf)
	emit(Convergence{Estimator: "is", Completed: 1, Total: 2, P: 0.5})
	emit(Convergence{Estimator: "is", Completed: 2, Total: 2, P: 0.5})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %q", lines)
	}
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if m["type"] != "convergence" {
			t.Fatalf("line %q missing type", l)
		}
	}
}
