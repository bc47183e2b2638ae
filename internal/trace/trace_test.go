package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	tr := &Trace{
		Sizes:     []float64{9000, 2000, 2100, 5000, 2200, 1900, 4800, 2050, 1950, 5100, 2000, 2080},
		FrameRate: 30,
		GOPLength: 12,
	}
	tr.Types = append([]FrameType(nil), DefaultGOP...)
	return tr
}

func TestFrameTypeStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		ft FrameType
		s  string
	}{{FrameI, "I"}, {FrameP, "P"}, {FrameB, "B"}} {
		if tc.ft.String() != tc.s {
			t.Errorf("String(%v) = %q", tc.ft, tc.ft.String())
		}
		got, err := ParseFrameType(strings.ToLower(tc.s))
		if err != nil || got != tc.ft {
			t.Errorf("ParseFrameType(%q) = %v, %v", tc.s, got, err)
		}
	}
	if _, err := ParseFrameType("X"); err == nil {
		t.Error("unknown frame type accepted")
	}
	if s := FrameType(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown type String = %q", s)
	}
}

func TestDefaultGOPPattern(t *testing.T) {
	if len(DefaultGOP) != 12 {
		t.Fatalf("GOP length = %d, want 12", len(DefaultGOP))
	}
	if DefaultGOP[0] != FrameI {
		t.Error("GOP must start with I")
	}
	counts := map[FrameType]int{}
	for _, ft := range DefaultGOP {
		counts[ft]++
	}
	if counts[FrameI] != 1 || counts[FrameP] != 3 || counts[FrameB] != 8 {
		t.Errorf("GOP composition = %v, want I=1 P=3 B=8", counts)
	}
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	if err := (&Trace{}).Validate(); err == nil {
		t.Error("empty trace accepted")
	}
	bad := sampleTrace()
	bad.Types = bad.Types[:3]
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	neg := sampleTrace()
	neg.Sizes[0] = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative size accepted")
	}
}

func TestByTypeAndCounts(t *testing.T) {
	tr := sampleTrace()
	iSizes := tr.ByType(FrameI)
	if len(iSizes) != 1 || iSizes[0] != 9000 {
		t.Errorf("I sizes = %v", iSizes)
	}
	pSizes := tr.ByType(FrameP)
	if len(pSizes) != 3 {
		t.Errorf("P count = %d, want 3", len(pSizes))
	}
	bSizes := tr.ByType(FrameB)
	if len(bSizes) != 8 {
		t.Errorf("B count = %d, want 8", len(bSizes))
	}
	counts := tr.TypeCounts()
	if counts[FrameI] != 1 || counts[FrameP] != 3 || counts[FrameB] != 8 {
		t.Errorf("TypeCounts = %v", counts)
	}
	// Untyped trace.
	untyped := &Trace{Sizes: []float64{1, 2}}
	if untyped.ByType(FrameI) != nil {
		t.Error("untyped ByType should be nil")
	}
}

func TestSummarize(t *testing.T) {
	tr := sampleTrace()
	s := tr.Summarize()
	if s.Frames != 12 {
		t.Errorf("Frames = %d", s.Frames)
	}
	if math.Abs(s.Duration-0.4) > 1e-12 {
		t.Errorf("Duration = %v, want 0.4", s.Duration)
	}
	if s.MinBytes != 1900 || s.MaxBytes != 9000 {
		t.Errorf("Min/Max = %v/%v", s.MinBytes, s.MaxBytes)
	}
	if s.PeakToMean <= 1 {
		t.Errorf("PeakToMean = %v", s.PeakToMean)
	}
	wantRate := s.MeanBytes * 8 * 30
	if math.Abs(s.MeanBitRate-wantRate) > 1e-9 {
		t.Errorf("MeanBitRate = %v, want %v", s.MeanBitRate, wantRate)
	}
	// No frame rate -> zero duration and bitrate.
	tr2 := &Trace{Sizes: []float64{1, 2, 3}}
	s2 := tr2.Summarize()
	if s2.Duration != 0 || s2.MeanBitRate != 0 {
		t.Error("unknown frame rate should zero duration/bitrate")
	}
}

func TestWindow(t *testing.T) {
	tr := sampleTrace()
	w := tr.Window(3, 7)
	if w.Len() != 4 {
		t.Fatalf("window len %d", w.Len())
	}
	if w.Sizes[0] != tr.Sizes[3] || w.Types[0] != tr.Types[3] {
		t.Error("window content wrong")
	}
	// Mutating the window must not touch the original.
	w.Sizes[0] = -999
	if tr.Sizes[3] == -999 {
		t.Error("window shares storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid window did not panic")
		}
	}()
	tr.Window(5, 5)
}

func TestConcat(t *testing.T) {
	tr := sampleTrace()
	both := tr.Concat(tr)
	if both.Len() != 2*tr.Len() {
		t.Fatalf("concat len %d", both.Len())
	}
	if both.Types == nil || both.Types[12] != tr.Types[0] {
		t.Error("types not concatenated")
	}
	// Untyped partner drops types.
	untyped := &Trace{Sizes: []float64{1, 2}}
	mixed := tr.Concat(untyped)
	if mixed.Types != nil {
		t.Error("mixed concat kept types")
	}
}

func TestGOPTotals(t *testing.T) {
	tr := sampleTrace() // 12 frames, GOP 12
	totals := tr.GOPTotals()
	if len(totals) != 1 {
		t.Fatalf("GOP totals len %d", len(totals))
	}
	var want float64
	for _, v := range tr.Sizes {
		want += v
	}
	if totals[0] != want {
		t.Errorf("GOP total %v, want %v", totals[0], want)
	}
	// Unknown GOP length.
	if (&Trace{Sizes: []float64{1, 2}}).GOPTotals() != nil {
		t.Error("unknown GOP should return nil")
	}
	// Partial trailing GOP dropped.
	longer := tr.Concat(tr.Window(0, 5))
	if got := longer.GOPTotals(); len(got) != 1 {
		t.Errorf("partial GOP not dropped: %d totals", len(got))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameRate != 30 || got.GOPLength != 12 {
		t.Errorf("header lost: fps=%v gop=%d", got.FrameRate, got.GOPLength)
	}
	if len(got.Sizes) != len(tr.Sizes) {
		t.Fatalf("size count = %d, want %d", len(got.Sizes), len(tr.Sizes))
	}
	for i := range tr.Sizes {
		if got.Sizes[i] != tr.Sizes[i] {
			t.Errorf("size[%d] = %v, want %v", i, got.Sizes[i], tr.Sizes[i])
		}
		if got.Types[i] != tr.Types[i] {
			t.Errorf("type[%d] = %v, want %v", i, got.Types[i], tr.Types[i])
		}
	}
}

func TestCSVUntypedRoundTrip(t *testing.T) {
	tr := &Trace{Sizes: []float64{1.5, 2.5, 3.5}, FrameRate: 24}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Types != nil {
		t.Error("untyped trace grew types")
	}
	if len(got.Sizes) != 3 || got.Sizes[2] != 3.5 {
		t.Errorf("sizes = %v", got.Sizes)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("not,csv\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ReadCSV(strings.NewReader("0,I,abc\n")); err == nil {
		t.Error("bad size accepted")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameRate != tr.FrameRate || got.GOPLength != tr.GOPLength {
		t.Error("binary header lost")
	}
	for i := range tr.Sizes {
		if got.Sizes[i] != tr.Sizes[i] || got.Types[i] != tr.Types[i] {
			t.Fatalf("binary mismatch at %d", i)
		}
	}
}

// TestFileRoundTrip checks WriteFile and ReadFile agree on the format the
// extension selects: binary for ".bin", CSV for anything else.
func TestFileRoundTrip(t *testing.T) {
	tr := sampleTrace()
	dir := t.TempDir()
	for name, magic := range map[string]string{"t.csv": "#", "t.bin": "VBR1", "t.txt": "#"} {
		path := filepath.Join(dir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if raw, _ := os.ReadFile(path); !bytes.HasPrefix(raw, []byte(magic)) {
			t.Fatalf("%s: file does not start with %q", name, magic)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range tr.Sizes {
			if got.Sizes[i] != tr.Sizes[i] || got.Types[i] != tr.Types[i] {
				t.Fatalf("%s: mismatch at %d", name, i)
			}
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBinaryUntyped(t *testing.T) {
	tr := &Trace{Sizes: []float64{7, 8}}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Types != nil {
		t.Error("untyped binary trace grew types")
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty binary accepted")
	}
	// Truncated payload.
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-20]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated binary accepted")
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(raw []float64, fps float64) bool {
		var sizes []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sizes = append(sizes, math.Abs(v))
			}
		}
		if len(sizes) == 0 {
			return true
		}
		tr := &Trace{Sizes: sizes, FrameRate: math.Abs(fps)}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got.Sizes) != len(sizes) {
			return false
		}
		for i := range sizes {
			if got.Sizes[i] != sizes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWriteDat(t *testing.T) {
	rows := func(w io.Writer) {
		for k := range 2000 {
			fmt.Fprintf(w, "%d\t%g\n", k, 1/float64(k+1))
		}
	}
	path := filepath.Join(t.TempDir(), "x.dat")
	var log bytes.Buffer
	if err := WriteDat(path, &log, rows); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	rows(&want)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file holds %d bytes (%v), want the %d rows' bytes", len(got), err, want.Len())
	}
	if log.String() != "wrote "+path+"\n" {
		t.Errorf("log %q", log.String())
	}

	// A full device takes the buffered rows and fails the flush; the
	// error must come back, and nothing may claim the file was written.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	log.Reset()
	if err := WriteDat("/dev/full", &log, rows); err == nil || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("writing to /dev/full: %v, want ENOSPC", err)
	}
	if log.Len() != 0 {
		t.Errorf("a failed write logged %q", log.String())
	}
}
