package tes

import (
	"math"
	"sort"
	"testing"

	"vbrsim/internal/dist"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
)

func TestValidate(t *testing.T) {
	good := Config{Alpha: 0.2, Zeta: 0.5, Marginal: dist.StdNormal}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Alpha: 0, Zeta: 0.5, Marginal: dist.StdNormal},
		{Alpha: 1.5, Zeta: 0.5, Marginal: dist.StdNormal},
		{Alpha: 0.2, Zeta: 0, Marginal: dist.StdNormal},
		{Alpha: 0.2, Zeta: 0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(bad[0], rng.New(1)); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestBackgroundUniformMarginal(t *testing.T) {
	// The stitched background must be exactly Uniform(0,1); check via a
	// coarse chi-square-ish bin test on the foreground of the identity
	// quantile (uniform marginal).
	g, err := New(Config{Alpha: 0.3, Zeta: 0.5, Marginal: uniform01{}}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	bins := make([]int, 10)
	for i := 0; i < n; i++ {
		v := g.Next()
		idx := int(v * 10)
		if idx == 10 {
			idx = 9
		}
		bins[idx]++
	}
	for i, c := range bins {
		if math.Abs(float64(c)-n/10) > 0.05*n/10 {
			t.Errorf("bin %d count %d, want ~%d", i, c, n/10)
		}
	}
}

// uniform01 is the identity marginal on (0,1).
type uniform01 struct{}

func (uniform01) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
func (uniform01) Quantile(p float64) float64   { return p }
func (uniform01) Sample(r *rng.Source) float64 { return r.Float64() }
func (uniform01) Mean() float64                { return 0.5 }

func TestForegroundMarginalExact(t *testing.T) {
	target := dist.Gamma{Shape: 2, Scale: 1000}
	g, err := New(Config{Alpha: 0.2, Zeta: 0.5, Marginal: target}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	x := g.Path(100000)
	mean := stats.Mean(x)
	if math.Abs(mean-target.Mean()) > 0.05*target.Mean() {
		t.Errorf("TES foreground mean %v, want %v", mean, target.Mean())
	}
	sort.Float64s(x)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		got := x[int(p*float64(len(x)))]
		want := target.Quantile(p)
		if math.Abs(got-want) > 0.08*want {
			t.Errorf("quantile %v: %v vs %v", p, got, want)
		}
	}
}

func TestBackgroundACFFormula(t *testing.T) {
	// Empirical ACF of the stitched background must match the Fourier
	// formula.
	alpha := 0.25
	g, err := New(Config{Alpha: alpha, Zeta: 0.5, Marginal: uniform01{}}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	x := g.Path(400000)
	a := stats.Autocorrelation(x, 10)
	for k := 1; k <= 10; k++ {
		want := BackgroundACF(alpha, k)
		if math.Abs(a[k]-want) > 0.02 {
			t.Errorf("acf[%d] = %v, want %v", k, a[k], want)
		}
	}
}

func TestBackgroundACFProperties(t *testing.T) {
	if got := BackgroundACF(0.3, 0); got != 1 {
		t.Errorf("acf[0] = %v", got)
	}
	// Smaller alpha -> stronger correlation.
	if BackgroundLag1(0.1) <= BackgroundLag1(0.5) {
		t.Error("lag-1 correlation not decreasing in alpha")
	}
	// SRD: correlations decay fast (geometric in k).
	r20 := BackgroundACF(0.3, 20)
	r10 := BackgroundACF(0.3, 10)
	if r20 > r10 {
		t.Error("ACF not decaying")
	}
	if r20/r10 > math.Pow(r10, 0.5) {
		// Geometric decay: r20 ~ r10^2 approximately.
		t.Logf("decay ratio %v (informational)", r20/r10)
	}
}

func TestCalibrateAlpha(t *testing.T) {
	for _, rho := range []float64{0.3, 0.7, 0.95} {
		alpha, err := CalibrateAlpha(rho)
		if err != nil {
			t.Fatal(err)
		}
		if got := BackgroundLag1(alpha); math.Abs(got-rho) > 1e-6 {
			t.Errorf("rho=%v: calibrated alpha %v gives %v", rho, alpha, got)
		}
	}
	if _, err := CalibrateAlpha(0); err == nil {
		t.Error("rho=0 accepted")
	}
	if _, err := CalibrateAlpha(1); err == nil {
		t.Error("rho=1 accepted")
	}
}

func TestTESMinusNegativeLag1(t *testing.T) {
	// TES- with small alpha: consecutive samples reflect around 1/2, so the
	// raw (unstitched) background has strongly negative lag-1 correlation.
	cfg := Config{Alpha: 0.05, Zeta: 1, Marginal: uniform01{}, Minus: true}
	g, err := New(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	x := g.Path(100000)
	a := stats.Autocorrelation(x, 2)
	if a[1] >= 0 {
		t.Errorf("TES- lag-1 acf = %v, want negative", a[1])
	}
	if a[2] <= 0 {
		t.Errorf("TES- lag-2 acf = %v, want positive", a[2])
	}
}

func TestSourceInterface(t *testing.T) {
	src := Source{Cfg: Config{Alpha: 0.2, Zeta: 0.5, Marginal: dist.Gamma{Shape: 1, Scale: 1000}}}
	path := src.ArrivalPath(rng.New(6), 500)
	if len(path) != 500 {
		t.Fatalf("path len %d", len(path))
	}
	if src.MeanRate() != 1000 {
		t.Errorf("MeanRate = %v", src.MeanRate())
	}
	for _, v := range path {
		if v < 0 {
			t.Fatal("negative arrival")
		}
	}
}

func TestTESIsSRDNotLRD(t *testing.T) {
	// The package's raison d'etre as a baseline: TES autocorrelation decays
	// exponentially, so the aggregated variance decays like 1/m (H ~ 0.5).
	g, err := New(Config{Alpha: 0.1, Zeta: 0.5, Marginal: uniform01{}}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	x := g.Path(1 << 19)
	v1 := stats.Variance(x)
	// Aggregate well beyond the correlation time (~60 lags at alpha=0.1).
	vm := stats.Variance(stats.Aggregate(x, 4096))
	// For LRD with H=0.9, vm/v1 would be 4096^-0.2 ~ 0.19; for SRD it is
	// ~ 2*tau/4096 ~ 0.03. Require clearly sub-LRD behavior.
	if ratio := vm / v1; ratio > 0.1 {
		t.Errorf("aggregated variance ratio %v: TES should be SRD", ratio)
	}
}

func BenchmarkTESNext(b *testing.B) {
	g, err := New(Config{Alpha: 0.2, Zeta: 0.5, Marginal: dist.Gamma{Shape: 1, Scale: 1}}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += g.Next()
	}
	_ = sink
}
