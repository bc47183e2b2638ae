package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/mpegtrace"
)

// testTracePath writes a synthetic trace and returns its path. The trace is
// long enough for a stable fit.
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

func TestRunSingleType(t *testing.T) {
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-i", path, "-type", "I"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"step 1: H =", "step 2:", "step 3: attenuation", "step 4: background", "marginal:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunGOP(t *testing.T) {
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-i", path, "-gop"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"composite I-B-P model", "P-frame marginal mean", "composite mean rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTwoExponentialSRD(t *testing.T) {
	path := testTracePath(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-i", path, "-type", "I", "-srd", "2"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "step 2:") {
		t.Errorf("missing fit output:\n%s", stdout.String())
	}
}

func TestRunTransformOut(t *testing.T) {
	path := testTracePath(t)
	out := filepath.Join(t.TempDir(), "h.dat")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-i", path, "-type", "I", "-transform-out", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 241 {
		t.Errorf("transform table has %d lines, want 241", lines)
	}
}

func TestRunJSONExport(t *testing.T) {
	path := testTracePath(t)
	out := filepath.Join(t.TempDir(), "spec.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-i", path, "-type", "I", "-seed", "3", "-json", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := modelspec.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("exported spec does not parse: %v", err)
	}
	if spec.Seed != 3 || spec.H <= 0.5 || spec.Marginal == nil || spec.Marginal.Kind != "empirical" {
		t.Fatalf("exported spec: %+v", spec)
	}
	if !strings.HasSuffix(spec.Name, "-I") {
		t.Errorf("spec name %q missing frame-type suffix", spec.Name)
	}

	// "-" streams the spec to stdout instead.
	stdout.Reset()
	if err := run([]string{"-i", path, "-type", "I", "-json", "-"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), `"acf"`) {
		t.Errorf("stdout export missing spec JSON:\n%s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("missing input accepted")
	}
	if err := run([]string{"-i", "/does/not/exist.csv"}, &stdout, &stderr); err == nil {
		t.Error("missing file accepted")
	}
	path := testTracePath(t)
	if err := run([]string{"-i", path, "-type", "Z"}, &stdout, &stderr); err == nil {
		t.Error("bad type accepted")
	}
}
