package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"vbrsim/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnownValues(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(x); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(x); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty moments should be 0")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty extrema should be 0")
	}
	if _, err := NewECDF(nil); err != ErrEmpty {
		t.Errorf("NewECDF(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMeanVarMatchesTwoPass(t *testing.T) {
	r := rng.New(1)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = 1e6 + r.Norm() // large offset stresses numerical stability
	}
	m, v := MeanVar(x)
	if !almostEqual(m, Mean(x), 1e-6) {
		t.Errorf("MeanVar mean %v vs Mean %v", m, Mean(x))
	}
	if !almostEqual(v, Variance(x), 1e-6) {
		t.Errorf("MeanVar var %v vs Variance %v", v, Variance(x))
	}
}

func TestSkewness(t *testing.T) {
	// Symmetric sample has ~0 skewness; exponential has skewness 2.
	r := rng.New(2)
	sym := make([]float64, 100000)
	expo := make([]float64, 100000)
	for i := range sym {
		sym[i] = r.Norm()
		expo[i] = r.Exp(1)
	}
	if s := Skewness(sym); math.Abs(s) > 0.05 {
		t.Errorf("normal skewness = %v, want ~0", s)
	}
	if s := Skewness(expo); math.Abs(s-2) > 0.15 {
		t.Errorf("exponential skewness = %v, want ~2", s)
	}
}

func TestAggregate(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	got := Aggregate(x, 2)
	want := []float64{1.5, 3.5, 5.5}
	if len(got) != len(want) {
		t.Fatalf("Aggregate len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Aggregate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if len(Aggregate(x, 10)) != 0 {
		t.Error("Aggregate with m > len should be empty")
	}
}

func TestAggregateVarianceIIDScaling(t *testing.T) {
	// For iid data, var(X^(m)) = var(X)/m.
	r := rng.New(3)
	x := make([]float64, 300000)
	for i := range x {
		x[i] = r.Norm()
	}
	v1 := Variance(x)
	for _, m := range []int{10, 100} {
		vm := Variance(Aggregate(x, m))
		want := v1 / float64(m)
		if math.Abs(vm-want) > 0.15*want {
			t.Errorf("var(X^(%d)) = %v, want ~%v", m, vm, want)
		}
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3*v - 2
	}
	slope, intercept, r2, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 3, 1e-12) || !almostEqual(intercept, -2, 1e-12) || !almostEqual(r2, 1, 1e-12) {
		t.Errorf("fit = (%v, %v, %v), want (3, -2, 1)", slope, intercept, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err != ErrEmpty {
		t.Errorf("single point: err = %v, want ErrEmpty", err)
	}
	if _, _, _, err := LinearFit([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("degenerate x should error")
	}
	if _, _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestLogLogFitPowerLaw(t *testing.T) {
	// y = 5 * x^-0.7 must fit slope -0.7, intercept log10(5).
	var x, y []float64
	for i := 1; i <= 50; i++ {
		x = append(x, float64(i))
		y = append(y, 5*math.Pow(float64(i), -0.7))
	}
	slope, intercept, r2, err := LogLogFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, -0.7, 1e-9) {
		t.Errorf("slope = %v, want -0.7", slope)
	}
	if !almostEqual(intercept, math.Log10(5), 1e-9) {
		t.Errorf("intercept = %v, want %v", intercept, math.Log10(5))
	}
	if r2 < 0.999999 {
		t.Errorf("r2 = %v, want ~1", r2)
	}
}

func TestLogLogFitSkipsNonPositive(t *testing.T) {
	x := []float64{-1, 0, 1, 2, 4}
	y := []float64{5, 5, 1, 2, 4}
	slope, _, _, err := LogLogFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 1, 1e-9) {
		t.Errorf("slope = %v, want 1 (y=x on positive pairs)", slope)
	}
}

func TestHistogramBasic(t *testing.T) {
	x := []float64{-0.5, 0, 0.4, 0.5, 1.4, 2.0, 5.0}
	h := NewHistogram(x, 0, 2, 4) // bins [0,.5) [.5,1) [1,1.5) [1.5,2)
	if h.N != 7 {
		t.Errorf("N = %d, want 7", h.N)
	}
	if h.Below != 1 || h.Above != 2 {
		t.Errorf("Below,Above = %d,%d, want 1,2", h.Below, h.Above)
	}
	wantCounts := []int{2, 1, 1, 0}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("Counts[%d] = %d, want %d", i, h.Counts[i], w)
		}
	}
	if !almostEqual(h.BinWidth(), 0.5, 1e-12) {
		t.Errorf("BinWidth = %v, want 0.5", h.BinWidth())
	}
	if !almostEqual(h.BinCenter(0), 0.25, 1e-12) {
		t.Errorf("BinCenter(0) = %v, want 0.25", h.BinCenter(0))
	}
	freqs := h.Frequencies()
	var sum float64
	for _, f := range freqs {
		sum += f
	}
	if !almostEqual(sum, 4.0/7.0, 1e-12) {
		t.Errorf("in-range frequency sum = %v, want 4/7", sum)
	}
}

func TestHistogramTopEdge(t *testing.T) {
	// A value just below Hi must land in the last bin, not panic.
	h := NewHistogram([]float64{1.9999999999999998}, 0, 2, 4)
	if h.Counts[3] != 1 {
		t.Errorf("top-edge value not in last bin: %v", h.Counts)
	}
}

func TestECDFCDFAndQuantile(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CDF(0); got != 0 {
		t.Errorf("CDF(0) = %v, want 0", got)
	}
	if got := e.CDF(3); got != 0.6 {
		t.Errorf("CDF(3) = %v, want 0.6", got)
	}
	if got := e.CDF(10); got != 1 {
		t.Errorf("CDF(10) = %v, want 1", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := e.Quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %v, want 5", got)
	}
	if got := e.Quantile(0.5); got != 3 {
		t.Errorf("Quantile(0.5) = %v, want 3", got)
	}
	// Interpolation: p=0.625 -> h=2.5 -> between sorted[2]=3 and sorted[3]=4.
	if got := e.Quantile(0.625); !almostEqual(got, 3.5, 1e-12) {
		t.Errorf("Quantile(0.625) = %v, want 3.5", got)
	}
}

func TestECDFQuantileMonotone(t *testing.T) {
	r := rng.New(4)
	x := make([]float64, 1000)
	for i := range x {
		x[i] = r.Norm()
	}
	e, _ := NewECDF(x)
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := e.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%v: %v < %v", p, q, prev)
		}
		prev = q
	}
}

func TestQuickECDFRoundTrip(t *testing.T) {
	// For any sample, CDF(Quantile(p)) >= p (right-continuity of ECDF).
	f := func(raw []float64, pRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := math.Mod(math.Abs(pRaw), 1)
		e, err := NewECDF(raw)
		if err != nil {
			return false
		}
		return e.CDF(e.Quantile(p)) >= p-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQQPairsIdenticalSamples(t *testing.T) {
	r := rng.New(5)
	x := make([]float64, 2000)
	for i := range x {
		x[i] = r.Norm()
	}
	qa, qb, err := QQPairs(x, x, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("identical samples: qa[%d]=%v != qb[%d]=%v", i, qa[i], i, qb[i])
		}
	}
	if !sort.Float64sAreSorted(qa) {
		t.Error("Q-Q quantiles are not sorted")
	}
}

func TestQQPairsShiftedSamples(t *testing.T) {
	r := rng.New(6)
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	for i := range a {
		a[i] = r.Norm()
		b[i] = r.Norm() + 2 // shifted by 2
	}
	qa, qb, err := QQPairs(a, b, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qa {
		if math.Abs(qb[i]-qa[i]-2) > 0.25 {
			t.Errorf("pair %d: qb-qa = %v, want ~2", i, qb[i]-qa[i])
		}
	}
}

func TestKolmogorovSmirnov(t *testing.T) {
	// Identical samples: D = 0.
	a := []float64{1, 2, 3, 4, 5}
	d, err := KolmogorovSmirnov(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("KS(a,a) = %v, want 0", d)
	}
	// Disjoint supports: D = 1.
	b := []float64{10, 11, 12}
	d, err = KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("KS disjoint = %v, want 1", d)
	}
	// Known small case: a={1,2}, b={2,3}: after 1 -> |1/2-0|=1/2.
	d, err = KolmogorovSmirnov([]float64{1, 2}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("KS small case = %v, want 0.5", d)
	}
	if _, err := KolmogorovSmirnov(nil, a); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestKolmogorovSmirnovSameDistribution(t *testing.T) {
	r := rng.New(8)
	a := make([]float64, 20000)
	b := make([]float64, 20000)
	for i := range a {
		a[i] = r.Norm()
		b[i] = r.Norm()
	}
	d, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// For equal distributions D ~ 1.36*sqrt(2/n) at the 5% level ~ 0.0136.
	if d > 0.025 {
		t.Errorf("KS same-dist = %v, want small", d)
	}
	// Shifted distribution must be clearly detected.
	for i := range b {
		b[i] += 0.5
	}
	d, err = KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.15 {
		t.Errorf("KS shifted = %v, want large", d)
	}
}

func TestAutocorrelationDelegation(t *testing.T) {
	r := rng.New(7)
	x := make([]float64, 1000)
	for i := range x {
		x[i] = r.Norm()
	}
	acf := Autocorrelation(x, 10)
	if len(acf) != 11 || acf[0] != 1 {
		t.Fatalf("acf = len %d first %v, want len 11 first 1", len(acf), acf[0])
	}
	acov := AutocovarianceKnownMean(x, Mean(x), 10)
	if math.Abs(acov[0]-Variance(x)) > 1e-9 {
		t.Errorf("acov[0] = %v, want variance %v", acov[0], Variance(x))
	}
}

func BenchmarkMeanVar1e6(b *testing.B) {
	r := rng.New(1)
	x := make([]float64, 1<<20)
	for i := range x {
		x[i] = r.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MeanVar(x)
	}
}
