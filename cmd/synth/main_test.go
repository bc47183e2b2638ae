package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/trace"
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

func TestRunGOPSynthesis(t *testing.T) {
	path := testTracePath(t)
	outPath := filepath.Join(t.TempDir(), "syn.csv")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-frames", "8192", "-o", outPath}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "mean absolute ACF error") {
		t.Errorf("missing ACF report:\n%s", stdout.String())
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	syn, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() != 8192 {
		t.Errorf("synthetic has %d frames", syn.Len())
	}
	if syn.Types == nil {
		t.Error("GOP synthesis lost frame types")
	}
}

func TestRunComparisonFiles(t *testing.T) {
	path := testTracePath(t)
	prefix := filepath.Join(t.TempDir(), "cmp")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-i", path, "-frames", "8192", "-compare-out", prefix}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"-acf.dat", "-hist.dat", "-qq.dat"} {
		if data, err := os.ReadFile(prefix + suffix); err != nil || len(data) == 0 {
			t.Errorf("%s: err=%v len=%d", suffix, err, len(data))
		}
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("missing input accepted")
	}
	if err := run([]string{"-i", "/missing.bin"}, &stdout, &stderr); err == nil {
		t.Error("missing file accepted")
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
	err := run([]string{"-i", path, "-frames", "8192", "-trace-out", "/dev/full"}, &stdout, &stderr)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("-trace-out /dev/full: %v, want ENOSPC", err)
	}
}
