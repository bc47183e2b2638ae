package streamblock

import (
	"bytes"
	"math"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/hosking"
	"vbrsim/internal/obs"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
)

// paperACF mirrors modelspec.Paper()'s background model (the package cannot
// import modelspec — modelspec sits above this engine).
func paperACF(t testing.TB) acf.Composite {
	t.Helper()
	c := acf.PaperComposite().Continuous()
	cc, err := c.EnsureConvex()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

func testEngine(t testing.TB, total int) *Engine {
	t.Helper()
	model := paperACF(t)
	plan, err := hosking.NewPlan(model, 1024)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := plan.Truncate(hosking.TruncateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(model, trunc, Config{Total: total})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestStitchMatchesDirectRecursion pins the FFT-convolution stitch against
// the definition: the correction added to the first C emitted samples must
// equal the homogeneous AR(p) extension of diff = hist - fakePast, computed
// by the direct recursion.
func TestStitchMatchesDirectRecursion(t *testing.T) {
	eng := testEngine(t, 1024)
	p, c := eng.order, eng.horizon
	s := eng.NewStream(1)
	defer s.Close()

	r := rng.New(99)
	for i := range s.hist {
		s.hist[i] = r.Norm()
	}
	for i := range s.raw {
		s.raw[i] = r.Norm()
	}
	before := append([]float64(nil), s.raw...)

	// Direct homogeneous extension of diff under the frozen AR(p) row.
	ext := make([]float64, p+c)
	for i := 0; i < p; i++ {
		ext[i] = s.hist[i] - before[i]
	}
	for k := p; k < p+c; k++ {
		var m float64
		for j := 1; j <= p; j++ {
			m += eng.phi[j] * ext[k-j]
		}
		ext[k] = m
	}

	s.stitch()
	for j := 0; j < c; j++ {
		want := before[p+j] + ext[p+j]
		got := s.raw[p+j]
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("corrected sample %d: got %v, want %v (diff %.3g)", j, got, want, got-want)
		}
	}
	// The fake past and everything beyond the horizon must be untouched —
	// the raw-tail invariant seek depends on.
	for i := 0; i < p; i++ {
		if s.raw[i] != before[i] {
			t.Fatalf("stitch modified fake past at %d", i)
		}
	}
	for i := p + c; i < len(s.raw); i++ {
		if s.raw[i] != before[i] {
			t.Fatalf("stitch modified sample %d beyond horizon %d", i, c)
		}
	}
}

// TestSeekBitIdentity locks the O(1) seek contract: seeking to any position
// — forward, backward, mid-block, exactly on a block boundary — then
// reading must be bit-identical to a fresh stream played sequentially.
func TestSeekBitIdentity(t *testing.T) {
	eng := testEngine(t, 1024)
	b := eng.block
	const seed = 424242
	ref := eng.NewStream(seed)
	defer ref.Close()
	total := 3*b + 50
	want := make([]float64, total)
	ref.Fill(want)

	s := eng.NewStream(seed)
	defer s.Close()
	positions := []int{0, 5, b - 1, b, b + 1, b + eng.horizon, 2 * b, 2*b + 7, 3 * b, 1, b}
	buf := make([]float64, 64)
	for _, pos := range positions {
		s.Seek(pos)
		if got := s.Pos(); got != pos {
			t.Fatalf("Seek(%d): Pos() = %d", pos, got)
		}
		n := len(buf)
		if pos+n > total {
			n = total - pos
		}
		s.Fill(buf[:n])
		for i := 0; i < n; i++ {
			if math.Float64bits(buf[i]) != math.Float64bits(want[pos+i]) {
				t.Fatalf("Seek(%d): frame %d differs: got %v, want %v", pos, pos+i, buf[i], want[pos+i])
			}
		}
	}
}

// TestSeekNextBlockBitIdentity seeks one block ahead, which reuses the
// history in place instead of regenerating the predecessor, from mid-block
// and from a block's end, and checks the frames against sequential
// playback bit for bit.
func TestSeekNextBlockBitIdentity(t *testing.T) {
	eng := testEngine(t, 1024)
	b := eng.block
	const seed = 515151
	ref := eng.NewStream(seed)
	defer ref.Close()
	total := 4 * b
	want := make([]float64, total)
	ref.Fill(want)

	s := eng.NewStream(seed)
	defer s.Close()
	buf := make([]float64, 64)
	check := func(pos int) {
		t.Helper()
		s.Seek(pos)
		if got := s.Pos(); got != pos {
			t.Fatalf("Seek(%d): Pos() = %d", pos, got)
		}
		s.Fill(buf)
		for i := range buf {
			if math.Float64bits(buf[i]) != math.Float64bits(want[pos+i]) {
				t.Fatalf("Seek(%d): frame %d differs: got %v, want %v", pos, pos+i, buf[i], want[pos+i])
			}
		}
	}
	check(7)         // block 0, mid-block
	check(b + 9)     // next block from mid-block
	s.Seek(2*b - 1)  // block 1's last frame
	s.Fill(buf[:1])  // now at block 1's end
	check(2*b + 100) // next block from the block end
	check(3*b - 64)  // block 2 again, mid-block
	check(3 * b)     // next block's first frame
}

// TestReseedReplays proves a reseeded arena reproduces the stream of a
// fresh one bit-exactly (the property the conformance replication loop and
// pooled servers rely on).
func TestReseedReplays(t *testing.T) {
	eng := testEngine(t, 1024)
	s := eng.NewStream(7)
	defer s.Close()
	n := 2*eng.block + 13
	first := make([]float64, n)
	s.Fill(first)
	s.Reseed(7)
	if s.Pos() != 0 {
		t.Fatalf("Reseed left Pos() = %d", s.Pos())
	}
	second := make([]float64, n)
	s.Fill(second)
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("frame %d differs after Reseed: %v vs %v", i, first[i], second[i])
		}
	}

	// A different seed must give a different stream.
	s.Reseed(8)
	other := make([]float64, n)
	s.Fill(other)
	same := 0
	for i := range other {
		if other[i] == first[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("streams for different seeds are identical")
	}
}

// TestSteadyStateZeroAlloc gates the arena contract: once a stream is warm,
// filling whole blocks allocates nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	eng := testEngine(t, 1024)
	s := eng.NewStream(11)
	defer s.Close()
	out := make([]float64, eng.block)
	s.Fill(out) // warm the arena and the shared FFT tables
	allocs := testing.AllocsPerRun(8, func() {
		s.Fill(out)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Fill allocates %.1f objects per block, want 0", allocs)
	}
}

// TestMomentsSane is a cheap statistical smoke test (the conformance suite
// carries the real gates): a long stream must be near zero-mean unit-
// variance, including across many stitched boundaries.
func TestMomentsSane(t *testing.T) {
	eng := testEngine(t, 1024)
	s := eng.NewStream(5)
	defer s.Close()
	x := make([]float64, 1<<16)
	s.Fill(x)
	mean, variance := stats.MeanVar(x)
	if math.Abs(mean) > 0.5 {
		t.Fatalf("mean %v too far from 0", mean)
	}
	if variance < 0.7 || variance > 1.3 {
		t.Fatalf("variance %v too far from 1", variance)
	}
}

// TestEngineForCaches checks sessions of one spec share one engine, and
// that distinct configs get distinct engines.
func TestEngineForCaches(t *testing.T) {
	model := paperACF(t)
	plan, err := hosking.NewPlan(model, 1024)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := plan.Truncate(hosking.TruncateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := EngineFor(model, trunc, Config{Total: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EngineFor(model, trunc, Config{Total: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("EngineFor rebuilt an engine for an identical key")
	}
	c, err := EngineFor(model, trunc, Config{Total: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("EngineFor shared an engine across different configs")
	}
}

// TestRegisterMetrics pins the exported names and checks the refill counter
// and arena gauge move.
func TestRegisterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	before := refillsTotal.Load()

	eng := testEngine(t, 1024)
	s := eng.NewStream(2)
	out := make([]float64, eng.block+1) // forces two refills
	s.Fill(out)
	if got := refillsTotal.Load(); got < before+2 {
		t.Fatalf("refills counter moved %d, want >= 2", got-before)
	}
	if arenaBytes.Load() <= 0 {
		t.Fatal("arena gauge not positive with a live stream")
	}
	s.Close()

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"vbrsim_streamblock_refills_total",
		"vbrsim_streamblock_block_ns",
		"vbrsim_streamblock_arena_bytes",
	} {
		if !bytes.Contains(buf.Bytes(), []byte("# TYPE "+name+" ")) {
			t.Fatalf("metric %s missing from exposition:\n%s", name, buf.String())
		}
	}
}

// TestNewEngineRejectsTinyTotal checks the p-room validation.
func TestNewEngineRejectsTinyTotal(t *testing.T) {
	model := paperACF(t)
	plan, err := hosking.NewPlan(model, 1024)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := plan.Truncate(hosking.TruncateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(model, trunc, Config{Total: 512}); err == nil {
		t.Fatal("NewEngine accepted a total smaller than twice the order")
	}
}
