package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbrsim/internal/trace"
)

func TestRunCSV(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.csv")
	var stderr bytes.Buffer
	err := run([]string{"-frames", "2000", "-seed", "5", "-o", out}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2000 || tr.GOPLength != 12 {
		t.Errorf("trace: %d frames, GOP %d", tr.Len(), tr.GOPLength)
	}
	if !strings.Contains(stderr.String(), "frame mix") {
		t.Errorf("summary missing: %q", stderr.String())
	}
}

func TestRunBinaryIntra(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.bin")
	var stderr bytes.Buffer
	err := run([]string{"-frames", "1000", "-intra", "-o", out, "-summary=false"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	for i, ft := range tr.Types {
		if ft != trace.FrameI {
			t.Fatalf("frame %d type %v, want I", i, ft)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %q", stderr.String())
	}
}

func TestRunBadConfig(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-frames", "-5"}, &stderr); err == nil {
		t.Fatal("negative frames accepted")
	}
	if err := run([]string{"-scene-alpha", "2.5"}, &stderr); err == nil {
		t.Fatal("bad alpha accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestDeterministicOutput(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.bin")
	b := filepath.Join(dir, "b.bin")
	var stderr bytes.Buffer
	if err := run([]string{"-frames", "500", "-seed", "9", "-o", a, "-summary=false"}, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-frames", "500", "-seed", "9", "-o", b, "-summary=false"}, &stderr); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if !bytes.Equal(da, db) {
		t.Error("same seed produced different files")
	}
}
