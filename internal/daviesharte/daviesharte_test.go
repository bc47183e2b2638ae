package daviesharte

import (
	"errors"
	"math"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/hosking"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
)

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(acf.White{}, 0, Options{}); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestWhiteNoiseExact(t *testing.T) {
	// The smallest positive tolerance rejects any negative eigenvalue mass.
	p, err := NewPlan(acf.White{}, 1024, Options{Tolerance: math.SmallestNonzeroFloat64})
	if err != nil {
		t.Fatalf("white noise embedding has negative mass: %v", err)
	}
	x := p.Path(rng.New(1))
	m, v := stats.MeanVar(x)
	if math.Abs(m) > 0.1 {
		t.Errorf("mean = %v", m)
	}
	if math.Abs(v-1) > 0.1 {
		t.Errorf("variance = %v", v)
	}
	a := stats.Autocorrelation(x, 5)
	for k := 1; k <= 5; k++ {
		if math.Abs(a[k]) > 0.1 {
			t.Errorf("white acf[%d] = %v", k, a[k])
		}
	}
}

// pooledACF averages sample autocovariances over replications.
func pooledACF(p *Plan, reps, maxLag int, seed uint64) []float64 {
	r := rng.New(seed)
	acov := make([]float64, maxLag+1)
	for rep := 0; rep < reps; rep++ {
		x := p.Path(r)
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

func TestFGNACFRecovery(t *testing.T) {
	for _, h := range []float64{0.6, 0.75, 0.9} {
		model := acf.FGN{H: h}
		p, err := NewPlan(model, 4096, Options{})
		if err != nil {
			t.Fatalf("H=%v: %v", h, err)
		}
		got := pooledACF(p, 20, 50, 42)
		for k := 1; k <= 50; k++ {
			want := model.At(k)
			if math.Abs(got[k]-want) > 0.04 {
				t.Errorf("H=%v: acf[%d] = %v, want %v", h, k, got[k], want)
			}
		}
	}
}

func TestCompositeACFRecovery(t *testing.T) {
	model := acf.PaperComposite().Continuous()
	p, err := NewPlan(model, 8192, Options{Tolerance: 0.01})
	if err != nil {
		t.Fatalf("composite embedding negative mass too large: %v", err)
	}
	// The sample autocovariance of a strongly LRD path has a large variance
	// (std ~ 0.5 per 8k-sample path at these lags), so pool many paths and
	// keep a tolerance matched to the pooled standard error.
	got := pooledACF(p, 200, 200, 7)
	for _, k := range []int{1, 10, 30, 60, 100, 200} {
		want := model.At(k)
		tol := 0.05
		if k >= 60 {
			tol = 0.08
		}
		if math.Abs(got[k]-want) > tol {
			t.Errorf("acf[%d] = %v, want %v", k, got[k], want)
		}
	}
}

func TestMatchesHoskingDistribution(t *testing.T) {
	// Both exact methods must produce paths with the same second-order
	// statistics: compare pooled ACFs and marginal variance.
	model := acf.FGN{H: 0.85}
	n := 512
	dh, err := NewPlan(model, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hosking.NewPlan(model, n)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := rng.New(11), rng.New(12)
	const reps = 60
	dhACF := make([]float64, 21)
	hACF := make([]float64, 21)
	for rep := 0; rep < reps; rep++ {
		a := stats.AutocovarianceKnownMean(dh.Path(r1), 0, 20)
		b := stats.AutocovarianceKnownMean(hp.Path(r2, n), 0, 20)
		for k := range dhACF {
			dhACF[k] += a[k]
			hACF[k] += b[k]
		}
	}
	for k := 1; k <= 20; k++ {
		d := dhACF[k]/dhACF[0] - hACF[k]/hACF[0]
		if math.Abs(d) > 0.06 {
			t.Errorf("lag %d: DH %v vs Hosking %v", k, dhACF[k]/dhACF[0], hACF[k]/hACF[0])
		}
	}
}

func TestNegativeEigenvalueRejection(t *testing.T) {
	// A triangle acf that drops to a negative plateau is not embeddable.
	bad := sliceModel{1, 0.9, 0.8, -0.9, -0.9, -0.9}
	_, err := NewPlan(bad, 6, Options{})
	if err == nil {
		t.Fatal("non-embeddable acf accepted")
	}
	if !errors.Is(err, ErrNotEmbeddable) {
		t.Fatalf("err = %v, want ErrNotEmbeddable", err)
	}
	// With AllowApprox it must succeed.
	if _, err := NewPlan(bad, 6, Options{AllowApprox: true}); err != nil {
		t.Fatal(err)
	}
}

type sliceModel []float64

func (s sliceModel) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	if k < len(s) {
		return s[k]
	}
	return s[len(s)-1]
}

func TestLongPathVariance(t *testing.T) {
	p, err := NewPlan(acf.FGN{H: 0.9}, 1<<16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := p.Path(rng.New(3))
	if len(x) != 1<<16 {
		t.Fatalf("len = %d", len(x))
	}
	_, v := stats.MeanVar(x)
	// LRD series have slowly-converging sample variance; loose tolerance.
	if v < 0.7 || v > 1.3 {
		t.Errorf("variance = %v, want ~1", v)
	}
}

func BenchmarkPath65536(b *testing.B) {
	p, err := NewPlan(acf.FGN{H: 0.9}, 1<<16, Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Path(r)
	}
}
