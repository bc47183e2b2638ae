package hosking

import (
	"errors"
	"math"
	"sync"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
)

func TestPlanWhiteNoise(t *testing.T) {
	p, err := NewPlan(acf.White{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		if v := p.CondVar(k); math.Abs(v-1) > 1e-12 {
			t.Fatalf("white noise CondVar(%d) = %v, want 1", k, v)
		}
	}
	x := []float64{3, -2, 1}
	if m := p.CondMean(3, x); m != 0 {
		t.Fatalf("white noise CondMean = %v, want 0", m)
	}
}

func TestPlanAR1PartialCorrelations(t *testing.T) {
	// For AR(1) acf phi^k, the partial correlation is phi at lag 1 and 0
	// beyond; conditional mean is phi*x_{k-1}; conditional variance 1-phi^2.
	phi := 0.6
	model := acf.Exponential{Lambda: -math.Log(phi)}
	p, err := NewPlan(model, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PartialCorr(1); math.Abs(got-phi) > 1e-12 {
		t.Errorf("PartialCorr(1) = %v, want %v", got, phi)
	}
	for k := 2; k < 50; k++ {
		if got := p.PartialCorr(k); math.Abs(got) > 1e-10 {
			t.Errorf("PartialCorr(%d) = %v, want 0", k, got)
		}
		if v := p.CondVar(k); math.Abs(v-(1-phi*phi)) > 1e-10 {
			t.Errorf("CondVar(%d) = %v, want %v", k, v, 1-phi*phi)
		}
	}
	x := []float64{0.3, -0.7, 1.1, 0.2}
	want := phi * x[3]
	if got := p.CondMean(4, x); math.Abs(got-want) > 1e-10 {
		t.Errorf("CondMean = %v, want %v", got, want)
	}
}

func TestPlanFGNConditionalVariancesDecreasing(t *testing.T) {
	p, err := NewPlan(acf.FGN{H: 0.9}, 200)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for k := 0; k < 200; k++ {
		v := p.CondVar(k)
		if v <= 0 || v > prev+1e-15 {
			t.Fatalf("CondVar(%d) = %v not positive decreasing (prev %v)", k, v, prev)
		}
		prev = v
	}
}

func TestPlanRejectsInvalidACF(t *testing.T) {
	// r(k) = 0.99 for all k>0 is not PD at moderate lengths... actually it
	// is (equicorrelation is PD for rho>=-1/(n-1)); use an oscillating
	// overshoot instead: r(1)=0.9, r(2)=-0.9 violates PD.
	bad := sliceModel{1, 0.9, -0.9}
	if _, err := NewPlan(bad, 3); err == nil {
		t.Fatal("non-PD autocorrelation accepted")
	}
}

// sliceModel serves a fixed slice as an acf.Model (0 beyond the end).
type sliceModel []float64

func (s sliceModel) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	if k < len(s) {
		return s[k]
	}
	return 0
}

// badLagZero is a model violating At(0) == 1.
type badLagZero struct{}

func (badLagZero) At(k int) float64 { return 0.5 }

func TestPlanRejectsBadLagZero(t *testing.T) {
	if _, err := NewPlan(badLagZero{}, 1); err == nil {
		t.Fatal("model with At(0) != 1 accepted")
	}
	if _, err := NewPlan(acf.White{}, 0); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestRawPaperCompositeNotPositiveDefinite(t *testing.T) {
	// The paper's literal eq.-13 coefficients leave a ~0.013 jump at the
	// knee, which destroys positive definiteness just past lag 60. This is
	// why eq. (12) (continuity) must be enforced before generation.
	_, err := NewPlan(acf.PaperComposite(), 200)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	if _, err := NewPlan(acf.PaperComposite().Continuous(), 200); err != nil {
		t.Fatalf("continuous variant rejected: %v", err)
	}
}

// pathACF generates reps paths of length n and returns the pooled sample ACF.
func pathACF(t *testing.T, model acf.Model, n, reps, maxLag int, seed uint64) []float64 {
	t.Helper()
	p, err := NewPlan(model, n)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	acov := make([]float64, maxLag+1)
	for rep := 0; rep < reps; rep++ {
		x := p.Path(r, n)
		a := stats.AutocovarianceKnownMean(x, 0, maxLag)
		for k := range acov {
			acov[k] += a[k]
		}
	}
	out := make([]float64, maxLag+1)
	for k := range out {
		out[k] = acov[k] / acov[0]
	}
	return out
}

func TestGeneratedPathMatchesTargetACF(t *testing.T) {
	models := map[string]acf.Model{
		"ar1":       acf.Exponential{Lambda: 0.2},
		"fgn09":     acf.FGN{H: 0.9},
		"composite": acf.PaperComposite().Continuous(),
	}
	for name, model := range models {
		got := pathACF(t, model, 1200, 40, 30, 99)
		for k := 1; k <= 30; k++ {
			want := model.At(k)
			if math.Abs(got[k]-want) > 0.05 {
				t.Errorf("%s: acf[%d] = %v, want %v", name, k, got[k], want)
			}
		}
	}
}

func TestGeneratedPathMoments(t *testing.T) {
	p, err := NewPlan(acf.FGN{H: 0.8}, 500)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(123)
	var all []float64
	for rep := 0; rep < 100; rep++ {
		all = append(all, p.Path(r, 500)...)
	}
	m, v := stats.MeanVar(all)
	// LRD sample means converge slowly (var ~ n^(2H-2)); loose tolerance.
	if math.Abs(m) > 0.1 {
		t.Errorf("mean = %v, want ~0", m)
	}
	if math.Abs(v-1) > 0.08 {
		t.Errorf("variance = %v, want ~1", v)
	}
}

func TestGeneratePanicsBeyondPlan(t *testing.T) {
	p, _ := NewPlan(acf.White{}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("over-long Generate did not panic")
		}
	}()
	p.Generate(rng.New(1), make([]float64, 5))
}

func TestPlanConcurrentUse(t *testing.T) {
	p, err := NewPlan(acf.PaperComposite().Continuous(), 300)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = p.Path(rng.New(uint64(i)), 300)
		}(i)
	}
	wg.Wait()
	// Same seeds as sequential use must match (plan is read-only).
	for i := 0; i < 8; i++ {
		want := p.Path(rng.New(uint64(i)), 300)
		for j := range want {
			if results[i][j] != want[j] {
				t.Fatalf("concurrent path %d differs at %d", i, j)
			}
		}
	}
}

func TestConditionalPathDistribution(t *testing.T) {
	// Conditioned on a strongly positive recent history, an AR(1)-like
	// process must start its continuation high and relax toward 0.
	p, err := NewPlan(acf.Exponential{Lambda: 0.1}, 200)
	if err != nil {
		t.Fatal(err)
	}
	observed := make([]float64, 50)
	for i := range observed {
		observed[i] = 2.0
	}
	const reps = 2000
	r := rng.New(31)
	first := 0.0
	last := 0.0
	for rep := 0; rep < reps; rep++ {
		cont := p.ConditionalPath(r, observed, 100)
		first += cont[0]
		last += cont[99]
	}
	first /= reps
	last /= reps
	// One step ahead: E[X|history=2] ~ 2 * r(1) ~ 1.8.
	if first < 1.5 || first > 2.1 {
		t.Errorf("one-step conditional mean = %v, want ~1.8", first)
	}
	// Far ahead the conditioning washes out (r(100) ~ 0).
	if math.Abs(last) > 0.2 {
		t.Errorf("100-step conditional mean = %v, want ~0", last)
	}
}

func TestConditionalPathMatchesForecastMean(t *testing.T) {
	p, err := NewPlan(acf.FGN{H: 0.8}, 120)
	if err != nil {
		t.Fatal(err)
	}
	observed := []float64{1.5, -0.3, 0.8, 2.1, 0.2}
	mean, std := p.Forecast(observed, 20)
	if len(mean) != 20 || len(std) != 20 {
		t.Fatalf("forecast lengths %d/%d", len(mean), len(std))
	}
	// Monte-Carlo average of conditional paths converges to the forecast
	// mean at step 0 (exact one-step predictor).
	const reps = 5000
	r := rng.New(33)
	var first float64
	for rep := 0; rep < reps; rep++ {
		first += p.ConditionalPath(r, observed, 1)[0]
	}
	first /= reps
	if math.Abs(first-mean[0]) > 4*std[0]/math.Sqrt(reps) {
		t.Errorf("conditional sample mean %v vs forecast %v", first, mean[0])
	}
	// Stds positive and (weakly) increasing toward the unconditional 1.
	for i, s := range std {
		if s <= 0 || s > 1+1e-9 {
			t.Errorf("std[%d] = %v", i, s)
		}
	}
}

func TestConditionalPathPanicsBeyondPlan(t *testing.T) {
	p, _ := NewPlan(acf.White{}, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("over-long conditional path did not panic")
		}
	}()
	p.ConditionalPath(rng.New(1), make([]float64, 8), 5)
}

func TestACFAccessor(t *testing.T) {
	p, _ := NewPlan(acf.Exponential{Lambda: 0.5}, 10)
	if p.ACF(0) != 1 {
		t.Error("ACF(0) != 1")
	}
	if p.ACF(3) != math.Exp(-1.5) {
		t.Error("ACF(3) wrong")
	}
	if p.ACF(-1) != 0 || p.ACF(99) != 0 {
		t.Error("out-of-range ACF should be 0")
	}
	if p.Len() != 10 {
		t.Error("Len wrong")
	}
}

func BenchmarkNewPlan1000(b *testing.B) {
	model := acf.PaperComposite().Continuous()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(model, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPath1000(b *testing.B) {
	p, err := NewPlan(acf.PaperComposite().Continuous(), 1000)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Path(r, 1000)
	}
}
