package farima

import (
	"math"
	"testing"

	"vbrsim/internal/hosking"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
)

func TestACFKnownValues(t *testing.T) {
	// rho(1) = d/(1-d).
	for _, d := range []float64{0.1, 0.25, 0.4, -0.2} {
		a := ACF{D: d}
		want := d / (1 - d)
		if got := a.At(1); math.Abs(got-want) > 1e-14 {
			t.Errorf("d=%v: rho(1) = %v, want %v", d, got, want)
		}
	}
	// d=0 is white noise.
	a0 := ACF{D: 0}
	if a0.At(1) != 0 || a0.At(100) != 0 || a0.At(0) != 1 {
		t.Error("d=0 should be white noise")
	}
}

func TestACFRecurrenceMatchesGammaForm(t *testing.T) {
	d := 0.3
	a := ACF{D: d}
	for _, k := range []int{1, 5, 50, 500, 4096} {
		lgKd, _ := math.Lgamma(float64(k) + d)
		lg1d, _ := math.Lgamma(1 - d)
		lgK1d, _ := math.Lgamma(float64(k) - d + 1)
		lgD, _ := math.Lgamma(d)
		want := math.Exp(lgKd + lg1d - lgK1d - lgD)
		if got := a.At(k); math.Abs(got-want)/want > 1e-10 {
			t.Errorf("rho(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestACFAsymptoticCrossover(t *testing.T) {
	// The recurrence (k=4096) and asymptotic (k=4097) branches must agree.
	a := ACF{D: 0.4}
	r1, r2 := a.At(4096), a.At(4097)
	if math.Abs(r1-r2)/r1 > 0.01 {
		t.Errorf("crossover mismatch: %v vs %v", r1, r2)
	}
}

func TestValidate(t *testing.T) {
	for _, d := range []float64{-0.5, 0.5, 0.7, -1} {
		if err := (ACF{D: d}).Validate(); err == nil {
			t.Errorf("d=%v accepted", d)
		}
	}
	if err := (ACF{D: 0.49}).Validate(); err != nil {
		t.Errorf("d=0.49 rejected: %v", err)
	}
}

func TestPlanPartialCorrelationsIdentity(t *testing.T) {
	// FARIMA(0,d,0) has phi_kk = d/(k-d) exactly (Hosking 1981).
	d := 0.3
	p, err := hosking.NewPlan(ACF{D: d}, 200)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 200; k++ {
		want := d / (float64(k) - d)
		if got := p.PartialCorr(k); math.Abs(got-want) > 1e-8 {
			t.Fatalf("phi_%d%d = %v, want %v", k, k, got, want)
		}
	}
}

func TestExactGenerationACF(t *testing.T) {
	d := 0.4
	p, err := hosking.NewPlan(ACF{D: d}, 800)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	model := ACF{D: d}
	// Sample ACFs of strongly LRD paths are noisy; pool many replications.
	acov := make([]float64, 21)
	for rep := 0; rep < 400; rep++ {
		x := p.Path(r, 800)
		a := stats.AutocovarianceKnownMean(x, 0, 20)
		for k := range acov {
			acov[k] += a[k]
		}
	}
	for k := 1; k <= 20; k++ {
		got := acov[k] / acov[0]
		want := model.At(k)
		if math.Abs(got-want) > 0.04 {
			t.Errorf("acf[%d] = %v, want %v", k, got, want)
		}
	}
}
