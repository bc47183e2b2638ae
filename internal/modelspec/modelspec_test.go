package modelspec

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"vbrsim/internal/core"
	"vbrsim/internal/rng"
)

func TestPaperSpecValidates(t *testing.T) {
	s := Paper()
	if err := s.Validate(); err != nil {
		t.Fatalf("Paper spec invalid: %v", err)
	}
	if s.ACF.Beta != 0.2 {
		t.Fatalf("Paper beta = %v, want 0.2", s.ACF.Beta)
	}
}

func TestParseRoundTrip(t *testing.T) {
	s := Paper()
	s.Seed = 42
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.Name != s.Name || got.ACF.Knee != s.ACF.Knee {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
	if got.Marginal == nil || got.Marginal.Kind != "lognormal" {
		t.Fatalf("marginal lost in round trip: %+v", got.Marginal)
	}
}

func TestParseRejectsUnknownFieldsAndBadSpecs(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"acf":{"weights":[1],"rates":[0.1],"l":0.9,"beta":0.2,"knee":60},"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse(strings.NewReader(`{"acf":{"weights":[1,2],"rates":[0.1],"l":0.9,"beta":0.2,"knee":60}}`)); err == nil {
		t.Fatal("mismatched weights/rates accepted")
	}
	bad := Paper()
	bad.Marginal = &MarginalSpec{Kind: "nope"}
	data, _ := json.Marshal(&bad)
	if _, err := Parse(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "unknown marginal") {
		t.Fatalf("bad marginal kind: err = %v", err)
	}
}

func TestStreamDeterministicAndSeekable(t *testing.T) {
	s := Paper()
	s.Seed = 7
	ctx := context.Background()

	a, err := s.Frames(ctx, 0, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Frames(ctx, 0, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}

	// Resuming mid-stream must reproduce the tail exactly.
	tail, err := s.Frames(ctx, 200, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tail {
		if tail[i] != a[200+i] {
			t.Fatalf("resumed frame %d differs: %v vs %v", 200+i, tail[i], a[200+i])
		}
	}

	// Seeking backwards on a live stream replays from the seed.
	st, err := s.OpenCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 100)
	st.Fill(buf)
	st.Seek(50)
	if st.Pos() != 50 {
		t.Fatalf("Pos after Seek(50) = %d", st.Pos())
	}
	var frame [1]float64
	st.Fill(frame[:])
	if got := frame[0]; got != a[50] {
		t.Fatalf("frame 50 after backward seek: %v, want %v", got, a[50])
	}

	// Different seeds must diverge.
	s2 := Paper()
	s2.Seed = 8
	c, err := s2.Frames(ctx, 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range c {
		if c[i] == a[i] {
			same++
		}
	}
	if same == len(c) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestStreamPositiveFrames(t *testing.T) {
	s := Paper()
	s.Seed = 3
	frames, err := s.Frames(context.Background(), 0, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if f <= 0 {
			t.Fatalf("frame %d = %v, want > 0 (lognormal marginal)", i, f)
		}
	}
}

func TestFromModelRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting in -short mode")
	}
	// Synthesize a trace from the paper spec, fit it, export, re-parse.
	s := Paper()
	s.Seed = 11
	trace, err := s.Frames(context.Background(), 0, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Fit(trace, core.FitOptions{AttenuationReps: 20})
	if err != nil {
		t.Fatal(err)
	}
	spec := FromModel(m, "fit", 99)
	data, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("exported spec does not re-parse: %v", err)
	}
	if got.Marginal == nil || got.Marginal.Kind != "empirical" {
		t.Fatalf("marginal kind = %+v, want empirical", got.Marginal)
	}
	if len(got.Marginal.Sample) > SampleCap {
		t.Fatalf("sample not compacted: %d > %d", len(got.Marginal.Sample), SampleCap)
	}
	if got.H != m.H || got.Attenuation != m.Attenuation {
		t.Fatalf("fit metadata lost: %+v", got)
	}
	// The exported spec must be generable.
	if _, err := got.Frames(context.Background(), 0, 64, 0); err != nil {
		t.Fatalf("exported spec cannot generate: %v", err)
	}
}

func TestOpenCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Paper()
	// Vary beta slightly so this never hits a plan already cached by another
	// test (a cache hit would succeed despite the canceled context).
	s.ACF.Beta = 0.2345
	if _, err := s.OpenCtx(ctx, 0); err == nil {
		t.Fatal("OpenCtx with canceled context succeeded")
	}
}

// SeekCtx aborts the skipped-frame replay on cancellation instead of
// generating every frame up to a client-controlled position.
func TestSeekCtxCanceled(t *testing.T) {
	s := Paper()
	s.Seed = 5
	st, err := s.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.SeekCtx(ctx, 1<<20); err != context.Canceled {
		t.Fatalf("SeekCtx err = %v, want context.Canceled", err)
	}
	if st.Pos() >= 1<<20 {
		t.Fatalf("pos = %d: the canceled seek ran to completion", st.Pos())
	}
	// The stream is still usable: a live seek lands exactly.
	if err := st.SeekCtx(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if st.Pos() != 100 {
		t.Fatalf("pos after live seek = %d, want 100", st.Pos())
	}
}

func TestStreamMatchesBatchTruncated(t *testing.T) {
	// The streaming generator must be bit-identical to batch generation with
	// the same plan and seed — the guarantee resume semantics rest on.
	s := Paper()
	s.Seed = 21
	ctx := context.Background()
	st, err := s.OpenCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 256
	streamed := make([]float64, n)
	st.Fill(streamed)

	model, tr, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := core.TruncatedPlanForCtx(ctx, model, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]float64, n)
	trunc.Generate(rng.New(s.Seed), batch)
	for i := range batch {
		if got := tr.Apply(batch[i]); got != streamed[i] {
			t.Fatalf("frame %d: streamed %v, batch %v", i, streamed[i], got)
		}
	}
}
