package dist

import (
	"math"
	"testing"

	"vbrsim/internal/rng"
)

func TestHillTailIndexRecoversPareto(t *testing.T) {
	r := rng.New(1)
	for _, alpha := range []float64{1.2, 2.0, 3.5} {
		sample := make([]float64, 100000)
		for i := range sample {
			sample[i] = r.Pareto(alpha, 1)
		}
		got, err := HillTailIndex(sample, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-alpha) > 0.15*alpha {
			t.Errorf("alpha=%v: Hill = %v", alpha, got)
		}
	}
}

func TestHillTailIndexValidation(t *testing.T) {
	if _, err := HillTailIndex([]float64{1, 2, 3}, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := HillTailIndex([]float64{1, 2, 3}, 5); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := HillTailIndex([]float64{-1, -2, -3, -4}, 2); err == nil {
		t.Error("all-negative sample accepted")
	}
	// Constant positive sample: log ratios are zero -> degenerate.
	if _, err := HillTailIndex([]float64{5, 5, 5, 5, 5, 5}, 3); err == nil {
		t.Error("constant sample accepted")
	}
}

func TestHillOnGammaIsLarge(t *testing.T) {
	// A light-tailed sample should produce a large tail index (no power
	// law); just check it exceeds any realistic video tail.
	r := rng.New(2)
	sample := make([]float64, 50000)
	for i := range sample {
		sample[i] = r.Gamma(3, 1)
	}
	got, err := HillTailIndex(sample, 500)
	if err != nil {
		t.Fatal(err)
	}
	if got < 3 {
		t.Errorf("gamma Hill index = %v, want > 3 (light tail)", got)
	}
}

func TestFitGammaParetoRoundTrip(t *testing.T) {
	// Sample from a known hybrid, refit, check CDF agreement.
	truth, err := NewGammaPareto(Gamma{Shape: 2.5, Scale: 1000}, 1.6, 8000)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	sample := make([]float64, 200000)
	for i := range sample {
		sample[i] = truth.Sample(r)
	}
	got, err := FitGammaPareto(sample, FitGammaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tail index within 25%.
	if math.Abs(got.Tail.Alpha-1.6) > 0.4 {
		t.Errorf("tail alpha = %v, want ~1.6", got.Tail.Alpha)
	}
	// CDF agreement at body quantiles.
	for _, x := range []float64{500, 1500, 3000, 6000} {
		if d := math.Abs(got.CDF(x) - truth.CDF(x)); d > 0.05 {
			t.Errorf("CDF(%v): fitted %v vs truth %v", x, got.CDF(x), truth.CDF(x))
		}
	}
	// Tail survival within a factor of ~2 at a deep quantile.
	sx := 50000.0
	sTruth := 1 - truth.CDF(sx)
	sGot := 1 - got.CDF(sx)
	if sGot < sTruth/3 || sGot > sTruth*3 {
		t.Errorf("tail survival at %v: fitted %v vs truth %v", sx, sGot, sTruth)
	}
}

func TestFitGammaParetoValidation(t *testing.T) {
	if _, err := FitGammaPareto(make([]float64, 10), FitGammaOptions{}); err == nil {
		t.Error("tiny sample accepted")
	}
	neg := make([]float64, 200)
	for i := range neg {
		neg[i] = -1
	}
	if _, err := FitGammaPareto(neg, FitGammaOptions{}); err == nil {
		t.Error("negative sample accepted")
	}
}

func TestFitGammaParetoOnVideoLikeSample(t *testing.T) {
	// Gamma body + occasional huge scene bursts: the fitted hybrid must be
	// usable as a transform target (finite mean, monotone quantile).
	r := rng.New(6)
	sample := make([]float64, 100000)
	for i := range sample {
		v := r.Gamma(2, 1500)
		if r.Float64() < 0.01 {
			v += r.Pareto(1.5, 10000)
		}
		sample[i] = v
	}
	gp, err := FitGammaPareto(sample, FitGammaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m := gp.Mean(); m <= 0 || math.IsInf(m, 1) && gp.Tail.Alpha > 1 {
		t.Errorf("hybrid mean = %v (alpha %v)", m, gp.Tail.Alpha)
	}
	prev := 0.0
	for p := 0.01; p < 1; p += 0.01 {
		q := gp.Quantile(p)
		if q < prev {
			t.Fatalf("hybrid quantile not monotone at p=%v", p)
		}
		prev = q
	}
}
