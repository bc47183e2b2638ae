package mpegtrace

import (
	"math"
	"testing"

	"vbrsim/internal/hurst"
	"vbrsim/internal/stats"
	"vbrsim/internal/trace"
)

func TestValidate(t *testing.T) {
	good := Config{Frames: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	bad := []Config{
		{Frames: 0},
		{Frames: 10, SceneAlpha: 2.5},
		{Frames: 10, SceneAlpha: 0.9},
		{Frames: 10, SceneMinFrames: 0.5},
		{Frames: 10, ModPhi: 1.0},
		{Frames: 10, IScale: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(Config{Frames: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Frames: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] {
			t.Fatalf("non-deterministic at frame %d", i)
		}
	}
	c, err := Generate(Config{Frames: 5000, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Sizes {
		if a.Sizes[i] == c.Sizes[i] {
			same++
		}
	}
	if same > len(a.Sizes)/10 {
		t.Errorf("different seeds produced %d/%d identical frames", same, len(a.Sizes))
	}
}

func TestGOPStructure(t *testing.T) {
	tr, err := Generate(Config{Frames: 240, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.GOPLength != 12 {
		t.Errorf("GOPLength = %d", tr.GOPLength)
	}
	for i, ft := range tr.Types {
		if ft != trace.DefaultGOP[i%12] {
			t.Fatalf("frame %d type %v, want %v", i, ft, trace.DefaultGOP[i%12])
		}
	}
}

func TestFrameTypeOrdering(t *testing.T) {
	tr, err := Generate(Config{Frames: 120000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mi := stats.Mean(tr.ByType(trace.FrameI))
	mp := stats.Mean(tr.ByType(trace.FrameP))
	mb := stats.Mean(tr.ByType(trace.FrameB))
	if !(mi > mp && mp > mb) {
		t.Errorf("frame size ordering violated: I=%v P=%v B=%v", mi, mp, mb)
	}
	// The I/B ratio should be substantial, as in real MPEG-1.
	if mi/mb < 2 {
		t.Errorf("I/B ratio = %v, want > 2", mi/mb)
	}
}

func TestMarginalIsLongTailed(t *testing.T) {
	tr, err := Generate(Config{Frames: 120000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	iSizes := tr.ByType(trace.FrameI)
	if sk := stats.Skewness(iSizes); sk < 0.5 {
		t.Errorf("I-frame skewness = %v, want > 0.5 (long right tail)", sk)
	}
	s := tr.Summarize()
	if s.PeakToMean < 3 {
		t.Errorf("peak-to-mean = %v, want > 3 (bursty VBR)", s.PeakToMean)
	}
	if s.MinBytes < 64 {
		t.Errorf("minimum frame size = %v, want >= 64", s.MinBytes)
	}
}

func TestHurstInTargetRange(t *testing.T) {
	cfg := Config{Frames: 1 << 18, Seed: 4}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := hurst.VarianceTime(tr.Sizes, hurst.VarianceTimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.TargetHurst() // 0.9 by default
	if est.H < want-0.15 || est.H > 1.0 {
		t.Errorf("variance-time H = %v, want near %v", est.H, want)
	}
	// The trace must be clearly LRD, not SRD.
	if est.H < 0.7 {
		t.Errorf("H = %v: trace is not long-range dependent", est.H)
	}
}

func TestTargetHurstMapping(t *testing.T) {
	if got := (Config{SceneAlpha: 1.2}).TargetHurst(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("TargetHurst(1.2) = %v, want 0.9", got)
	}
	if got := (Config{SceneAlpha: 1.6}).TargetHurst(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("TargetHurst(1.6) = %v, want 0.7", got)
	}
}

func TestIFrameACFHasKnee(t *testing.T) {
	// The I-frame subsequence must show fast early ACF decay (within-scene
	// AR modulation) followed by a slowly decaying tail (scene process).
	tr, err := Generate(Config{Frames: 1 << 18, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	iSizes := tr.ByType(trace.FrameI)
	a := stats.Autocorrelation(iSizes, 200)
	if a[1] < 0.3 {
		t.Errorf("acf[1] = %v, want strong short-lag correlation", a[1])
	}
	// Early decay must be faster than late decay (knee shape):
	early := a[1] - a[20]
	late := a[100] - a[119]
	if early <= late {
		t.Errorf("no knee: early drop %v vs late drop %v", early, late)
	}
	// The tail must remain well above zero (LRD).
	if a[150] < 0.03 {
		t.Errorf("acf[150] = %v: long-range correlation missing", a[150])
	}
}

func TestFullStreamACFOscillatesWithGOP(t *testing.T) {
	// The composite I-B-P stream has a periodic ACF component with the GOP
	// period: lag-12 correlation exceeds lag-6 correlation.
	tr, err := Generate(Config{Frames: 1 << 17, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	a := stats.Autocorrelation(tr.Sizes, 24)
	if a[12] <= a[6] {
		t.Errorf("acf[12]=%v should exceed acf[6]=%v (GOP periodicity)", a[12], a[6])
	}
	if a[24] <= a[18] {
		t.Errorf("acf[24]=%v should exceed acf[18]=%v", a[24], a[18])
	}
}

func TestValidatePropagatedByGenerate(t *testing.T) {
	if _, err := Generate(Config{Frames: -5}); err == nil {
		t.Error("Generate accepted invalid config")
	}
}

func TestGeneratorMatchesGenerate(t *testing.T) {
	// The stepping generator must reproduce Generate bit for bit: the trunk
	// engine and trafficd serve GOP streams through Next, and seek-&-resume
	// determinism rests on this equivalence.
	cfg := Config{Frames: 20000, Seed: 99}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(Config{Seed: 99}) // unbounded: Frames omitted
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Sizes {
		size, ft := g.Next()
		if size != tr.Sizes[i] || ft != tr.Types[i] {
			t.Fatalf("frame %d: generator (%v,%v) != Generate (%v,%v)",
				i, size, ft, tr.Sizes[i], tr.Types[i])
		}
	}
	if g.Pos() != cfg.Frames {
		t.Errorf("Pos = %d, want %d", g.Pos(), cfg.Frames)
	}
}

func TestGeneratorReseedReplay(t *testing.T) {
	g, err := NewGenerator(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	first := make([]float64, 4096)
	for i := range first {
		first[i], _ = g.Next()
	}
	g.Reseed(5)
	if g.Pos() != 0 {
		t.Fatalf("Pos after Reseed = %d", g.Pos())
	}
	for i := range first {
		size, _ := g.Next()
		if size != first[i] {
			t.Fatalf("replay diverged at frame %d: %v != %v", i, size, first[i])
		}
	}
	// A different seed must produce a different stream.
	g.Reseed(6)
	same := 0
	for i := range first {
		size, _ := g.Next()
		if size == first[i] {
			same++
		}
	}
	if same > len(first)/10 {
		t.Errorf("reseed(6) matched %d/%d frames of seed 5", same, len(first))
	}
}

func TestMeanBytesPerFrame(t *testing.T) {
	// Use a mild scene tail (alpha=1.9) so the sample mean converges well
	// enough to check the analytic formula.
	cfg := Config{Frames: 1 << 18, Seed: 11, SceneAlpha: 1.9}
	want := cfg.MeanBytesPerFrame()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := stats.Mean(tr.Sizes)
	if rel := math.Abs(got-want) / want; rel > 0.08 {
		t.Errorf("sample mean %v vs analytic %v (rel err %.3f)", got, want, rel)
	}
	// The default config's analytic mean must sit in the paper's Fig. 1
	// range (a few thousand bytes/frame).
	def := Config{}.MeanBytesPerFrame()
	if def < 1000 || def > 10000 {
		t.Errorf("default analytic mean %v out of plausible range", def)
	}
}

func BenchmarkGenerate65536(b *testing.B) {
	cfg := Config{Frames: 1 << 16, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
