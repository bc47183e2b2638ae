package dist

import (
	"math"
	"testing"
	"testing/quick"

	"vbrsim/internal/rng"
)

// distributions under test, with a representative instance each.
func testDistributions() map[string]Distribution {
	gp, err := NewGammaPareto(Gamma{Shape: 2, Scale: 1000}, 1.5, 4000)
	if err != nil {
		panic(err)
	}
	return map[string]Distribution{
		"normal":      Normal{Mu: 3, Sigma: 2},
		"stdnormal":   StdNormal,
		"pareto":      Pareto{Alpha: 2.5, Xm: 1.5},
		"lognormal":   Lognormal{Mu: 1, Sigma: 0.5},
		"gamma":       Gamma{Shape: 3.2, Scale: 2.0},
		"gammapareto": gp,
	}
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	for name, d := range testDistributions() {
		for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
			q := d.Quantile(p)
			back := d.CDF(q)
			if math.Abs(back-p) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%v)) = %v", name, p, back)
			}
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	for name, d := range testDistributions() {
		prev := -1.0
		for x := -10.0; x <= 10000; x += 97.3 {
			c := d.CDF(x)
			if c < prev-1e-12 {
				t.Fatalf("%s: CDF not monotone at %v", name, x)
			}
			if c < 0 || c > 1 {
				t.Fatalf("%s: CDF(%v) = %v outside [0,1]", name, x, c)
			}
			prev = c
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	for name, d := range testDistributions() {
		prev := math.Inf(-1)
		for p := 0.001; p < 1; p += 0.001 {
			q := d.Quantile(p)
			if q < prev-1e-9 {
				t.Fatalf("%s: quantile not monotone at p=%v: %v < %v", name, p, q, prev)
			}
			prev = q
		}
	}
}

func TestSampleMeansMatch(t *testing.T) {
	r := rng.New(42)
	for name, d := range testDistributions() {
		want := d.Mean()
		if math.IsInf(want, 1) {
			continue
		}
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.Sample(r)
		}
		got := sum / n
		tol := 0.05*math.Abs(want) + 0.05
		if math.Abs(got-want) > tol {
			t.Errorf("%s: sample mean %v, want %v", name, got, want)
		}
	}
}

func TestStdNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.841344746068543, 1},
		{0.977249868051821, 2},
		{0.998650101968370, 3},
		{0.158655253931457, -1},
		{0.0227501319481792, -2},
		{1.3498980316300945e-3, -3},
		{2.866515719235352e-7, -5},
	}
	for _, tc := range cases {
		got := StdNormal.Quantile(tc.p)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.841344746068543},
		{-1, 0.158655253931457},
		{3, 0.998650101968370},
		{-6, 9.865876450376946e-10},
	}
	for _, tc := range cases {
		got := StdNormal.CDF(tc.x)
		if math.Abs(got-tc.want) > 1e-12*math.Max(1, 1/tc.want) && math.Abs(got-tc.want)/tc.want > 1e-9 {
			t.Errorf("CDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestNormalQuantileExtremeTails(t *testing.T) {
	if !math.IsInf(StdNormal.Quantile(0), -1) || !math.IsInf(StdNormal.Quantile(1), 1) {
		t.Error("quantile endpoints must be infinite")
	}
	// Deep-tail round trip.
	for _, p := range []float64{1e-10, 1e-8, 1 - 1e-10} {
		q := StdNormal.Quantile(p)
		if math.Abs(StdNormal.CDF(q)-p) > 1e-11+1e-4*p {
			t.Errorf("deep tail p=%v: CDF(Quantile(p)) = %v", p, StdNormal.CDF(q))
		}
	}
}

func TestGammaCDFKnownValues(t *testing.T) {
	// Gamma(1, 1) is Exponential(1): CDF(x) = 1-exp(-x).
	g := Gamma{Shape: 1, Scale: 1}
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := g.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Gamma(1,1).CDF(%v) = %v, want %v", x, got, want)
		}
	}
	// Gamma(k=n/2, scale=2) is chi-squared; chi2(2 dof).CDF(2) known.
	chi2 := Gamma{Shape: 1, Scale: 2}
	want := 1 - math.Exp(-1)
	if got := chi2.CDF(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("chi2(2).CDF(2) = %v, want %v", got, want)
	}
}

func TestGammaQuantileSmallShape(t *testing.T) {
	g := Gamma{Shape: 0.3, Scale: 1}
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		q := g.Quantile(p)
		if q < 0 || math.IsNaN(q) {
			t.Fatalf("Quantile(%v) = %v", p, q)
		}
		if back := g.CDF(q); math.Abs(back-p) > 1e-8 {
			t.Errorf("small-shape round trip p=%v got %v", p, back)
		}
	}
}

func TestParetoMeanInfinite(t *testing.T) {
	if !math.IsInf(Pareto{Alpha: 0.9, Xm: 1}.Mean(), 1) {
		t.Error("Pareto with alpha<=1 must have infinite mean")
	}
}

func TestGammaParetoContinuity(t *testing.T) {
	gp, err := NewGammaPareto(Gamma{Shape: 2, Scale: 500}, 1.2, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// The CDF must be continuous at the cut.
	eps := 1e-6
	below := gp.CDF(gp.Cut - eps)
	above := gp.CDF(gp.Cut + eps)
	if math.Abs(above-below) > 1e-4 {
		t.Errorf("CDF jump at cut: %v vs %v", below, above)
	}
	// The tail must dominate any gamma tail: survival decays polynomially.
	s10 := 1 - gp.CDF(10*gp.Cut)
	want := (1 - gp.Body.CDF(gp.Cut)) * math.Pow(0.1, 1.2)
	if math.Abs(s10-want) > 1e-9 {
		t.Errorf("tail survival %v, want %v", s10, want)
	}
}

func TestGammaParetoValidation(t *testing.T) {
	if _, err := NewGammaPareto(Gamma{Shape: 1, Scale: 1}, 1.5, -1); err == nil {
		t.Error("negative cut accepted")
	}
	if _, err := NewGammaPareto(Gamma{Shape: 1, Scale: 1}, 0, 1); err == nil {
		t.Error("zero alpha accepted")
	}
}

func TestEmpiricalMatchesSample(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	e, err := NewEmpirical(sample)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 10 || e.Min() != 1 || e.Max() != 10 {
		t.Errorf("Len/Min/Max = %d/%v/%v", e.Len(), e.Min(), e.Max())
	}
	if e.Mean() != 5.5 {
		t.Errorf("Mean = %v, want 5.5", e.Mean())
	}
	if got := e.CDF(5); got != 0.5 {
		t.Errorf("CDF(5) = %v, want 0.5", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := e.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v, want 10", got)
	}
}

func TestEmpiricalEmpty(t *testing.T) {
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestEmpiricalInversionRecoversDistribution(t *testing.T) {
	// Sampling via Quantile(U) from an empirical built on N(0,1) data must
	// reproduce N(0,1) moments.
	r := rng.New(9)
	base := make([]float64, 50000)
	for i := range base {
		base[i] = r.Norm()
	}
	e, _ := NewEmpirical(base)
	var sum, sumSq float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := e.Sample(r)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("empirical inversion mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("empirical inversion variance = %v", variance)
	}
}

func TestQuickNormalRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 1)
		if p == 0 {
			return true
		}
		q := StdNormal.Quantile(p)
		return math.Abs(StdNormal.CDF(q)-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickEmpiricalQuantileWithinRange(t *testing.T) {
	f := func(sample []float64, praw float64) bool {
		clean := sample[:0]
		for _, v := range sample {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		e, err := NewEmpirical(clean)
		if err != nil {
			return false
		}
		p := math.Mod(math.Abs(praw), 1)
		q := e.Quantile(p)
		return q >= e.Min() && q <= e.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += StdNormal.Quantile(0.3 + 0.4*float64(i%1000)/1000)
	}
	_ = sink
}

func BenchmarkGammaQuantile(b *testing.B) {
	g := Gamma{Shape: 2.5, Scale: 1}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += g.Quantile(0.3 + 0.4*float64(i%1000)/1000)
	}
	_ = sink
}

func BenchmarkEmpiricalQuantile(b *testing.B) {
	r := rng.New(1)
	sample := make([]float64, 100000)
	for i := range sample {
		sample[i] = r.Norm()
	}
	e, _ := NewEmpirical(sample)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += e.Quantile(float64(i%1000) / 1000)
	}
	_ = sink
}
