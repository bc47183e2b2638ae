package transform

import (
	"context"
	"errors"
	"math"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/dist"
	"vbrsim/internal/hosking"
	"vbrsim/internal/hurst"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"

	"vbrsim/internal/daviesharte"
)

func TestIdentityTransform(t *testing.T) {
	// Target N(0,1): h must be the identity.
	h := New(dist.StdNormal)
	for _, x := range []float64{-3, -1, 0, 0.5, 2.7} {
		if got := h.Apply(x); math.Abs(got-x) > 1e-8 {
			t.Errorf("identity h(%v) = %v", x, got)
		}
	}
	if a := h.Attenuation(); math.Abs(a-1) > 1e-6 {
		t.Errorf("identity attenuation = %v, want 1", a)
	}
}

func TestAffineTransformAttenuationIsOne(t *testing.T) {
	h := New(dist.Normal{Mu: 500, Sigma: 42})
	if a := h.Attenuation(); math.Abs(a-1) > 1e-6 {
		t.Errorf("affine attenuation = %v, want 1", a)
	}
}

func TestApplyIsMonotone(t *testing.T) {
	targets := []dist.Distribution{
		dist.Gamma{Shape: 1, Scale: 1000},
		dist.Gamma{Shape: 2, Scale: 1500},
		dist.Lognormal{Mu: 7, Sigma: 0.6},
	}
	for _, target := range targets {
		h := New(target)
		prev := math.Inf(-1)
		for x := -5.0; x <= 5; x += 0.1 {
			y := h.Apply(x)
			if y < prev {
				t.Fatalf("%T: h not monotone at %v", target, x)
			}
			prev = y
		}
	}
}

func TestTransformedMarginal(t *testing.T) {
	// h(Z) with Z ~ N(0,1) must have the target marginal.
	target := dist.Gamma{Shape: 2.5, Scale: 1000}
	h := New(target)
	r := rng.New(1)
	const n = 100000
	var sum float64
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = h.Apply(r.Norm())
		sum += samples[i]
	}
	mean := sum / n
	if math.Abs(mean-target.Mean()) > 0.02*target.Mean() {
		t.Errorf("transformed mean = %v, want %v", mean, target.Mean())
	}
	// Quantile check at several probabilities.
	e, err := stats.NewECDF(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := e.Quantile(p)
		want := target.Quantile(p)
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("quantile %v: got %v want %v", p, got, want)
		}
	}
}

func TestTable(t *testing.T) {
	h := New(dist.Gamma{Shape: 1, Scale: 1})
	xs, hs := h.Table(-4, 4, 100)
	if len(xs) != 101 || len(hs) != 101 {
		t.Fatalf("table lengths %d/%d", len(xs), len(hs))
	}
	if xs[0] != -4 || xs[100] != 4 {
		t.Errorf("table range [%v, %v]", xs[0], xs[100])
	}
	for i := 1; i < len(hs); i++ {
		if hs[i] < hs[i-1] {
			t.Fatalf("table not monotone at %d", i)
		}
	}
}

func TestAttenuationInUnitInterval(t *testing.T) {
	targets := []dist.Distribution{
		dist.Gamma{Shape: 1, Scale: 100},
		dist.Gamma{Shape: 0.7, Scale: 100},
		dist.Lognormal{Mu: 8, Sigma: 1},
		dist.Pareto{Alpha: 2.5, Xm: 1000},
	}
	for _, target := range targets {
		a := New(target).Attenuation()
		if a <= 0 || a > 1 {
			t.Errorf("%T: attenuation %v outside (0,1]", target, a)
		}
		// Strictly nonlinear transforms attenuate strictly.
		if a > 0.999 {
			t.Errorf("%T: attenuation %v suspiciously close to 1", target, a)
		}
	}
}

func TestAnalyticVsEmpiricalAttenuation(t *testing.T) {
	// The analytic (Appendix A) value is the k->infinity limit of
	// r_Y(k)/r_X(k); the empirical measurement converges to it from above as
	// r_X(k) -> 0 (higher Hermite terms contribute O(r_X(k))). Measure on a
	// background whose correlation is already small at the chosen lags.
	target := dist.Lognormal{Mu: 7.5, Sigma: 0.8}
	h := New(target)
	analytic := h.Attenuation()

	plan, err := hosking.NewPlan(acf.FGN{H: 0.85}, 600)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := MeasureCtx(context.Background(), plan, h, 600, MeasureOptions{
		Lags:         []int{100, 150, 200},
		Replications: 200,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if measured < analytic-0.05 || measured > analytic+0.12 {
		t.Errorf("measured attenuation %v vs analytic %v", measured, analytic)
	}
}

func TestMeasuredAttenuationApproachesAnalyticFromAbove(t *testing.T) {
	// At moderate lags (larger r_X) the measured ratio exceeds the limit;
	// at far lags it comes closer — the paper's "measure at a large lag".
	target := dist.Lognormal{Mu: 7.5, Sigma: 0.8}
	h := New(target)
	analytic := h.Attenuation()
	plan, err := hosking.NewPlan(acf.PaperComposite().Continuous(), 600)
	if err != nil {
		t.Fatal(err)
	}
	near, err := MeasureCtx(context.Background(), plan, h, 600, MeasureOptions{Lags: []int{80}, Replications: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if near < analytic-0.02 {
		t.Errorf("near-lag measured %v below analytic limit %v", near, analytic)
	}
}

func TestMeasureValidation(t *testing.T) {
	plan, err := hosking.NewPlan(acf.Exponential{Lambda: 0.01}, 100)
	if err != nil {
		t.Fatal(err)
	}
	h := New(dist.StdNormal)
	if _, err := MeasureCtx(context.Background(), plan, h, 100, MeasureOptions{Lags: []int{90}}); err == nil {
		t.Error("oversized lag accepted")
	}
	if _, err := MeasureCtx(context.Background(), plan, h, 100, MeasureOptions{Lags: []int{-1}}); err == nil {
		t.Error("negative lag accepted")
	}
}

// MeasureCtx polls its context between replications, so a canceled caller
// aborts instead of running the full measurement.
func TestMeasureCtxCanceled(t *testing.T) {
	plan, err := hosking.NewPlan(acf.FGN{H: 0.85}, 600)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = MeasureCtx(ctx, plan, New(dist.StdNormal), 600, MeasureOptions{
		Lags: []int{100}, Replications: 200, Seed: 3,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestHurstInvarianceUnderTransform(t *testing.T) {
	// Appendix A: Y = h(X) keeps the Hurst parameter of X. Generate a long
	// fGn path, map through a strongly nonlinear marginal, re-estimate H.
	hTrue := 0.9
	plan, err := daviesharte.NewPlan(acf.FGN{H: hTrue}, 1<<18, daviesharte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := plan.Path(rng.New(5))
	h := New(dist.Lognormal{Mu: 8, Sigma: 0.7})
	y := h.ApplySlice(x)
	est, err := hurst.VarianceTime(y, hurst.VarianceTimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Finite-sample estimates on heavy-tailed transforms carry extra
	// variance; the invariance shows as H staying firmly in LRD territory
	// near the true value rather than collapsing toward 0.5.
	if math.Abs(est.H-hTrue) > 0.12 {
		t.Errorf("transformed H = %v, want %v (invariance)", est.H, hTrue)
	}
	// Cross-check with the untransformed path: the two estimates must agree.
	estX, err := hurst.VarianceTime(x, hurst.VarianceTimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.H-estX.H) > 0.1 {
		t.Errorf("H(Y)=%v vs H(X)=%v differ beyond estimator noise", est.H, estX.H)
	}
}

func TestACFAttenuationShape(t *testing.T) {
	// r_Y(k) ~ a * r_X(k) at large lags: verify the ratio stabilizes near
	// the analytic a across several lags.
	target := dist.Gamma{Shape: 1, Scale: 500}
	h := New(target)
	analytic := h.Attenuation()

	plan, err := daviesharte.NewPlan(acf.FGN{H: 0.85}, 1<<15, daviesharte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	maxLag := 300
	xa := make([]float64, maxLag+1)
	ya := make([]float64, maxLag+1)
	for rep := 0; rep < 30; rep++ {
		x := plan.Path(r)
		y := h.ApplySlice(x)
		ax := stats.AutocovarianceKnownMean(x, 0, maxLag)
		ay := stats.AutocovarianceKnownMean(y, target.Mean(), maxLag)
		for k := range xa {
			xa[k] += ax[k]
			ya[k] += ay[k]
		}
	}
	for _, k := range []int{150, 200, 300} {
		ratio := (ya[k] / ya[0]) / (xa[k] / xa[0])
		if math.Abs(ratio-analytic) > 0.1 {
			t.Errorf("lag %d: acf ratio %v, want ~%v", k, ratio, analytic)
		}
	}
}

func BenchmarkApply(b *testing.B) {
	h := New(dist.Gamma{Shape: 2, Scale: 1000})
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += h.Apply(float64(i%100)/25 - 2)
	}
	_ = sink
}

func BenchmarkAttenuation(b *testing.B) {
	h := New(dist.Lognormal{Mu: 8, Sigma: 0.7})
	for i := 0; i < b.N; i++ {
		h.Attenuation()
	}
}
