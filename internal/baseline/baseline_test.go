package baseline

import (
	"math"
	"testing"

	"vbrsim/internal/dist"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
)

func TestSRDOnlyBackground(t *testing.T) {
	m, err := SRDOnlyBackground(0.00565, 0.94, 60)
	if err != nil {
		t.Fatal(err)
	}
	// At the reference lag the background must carry r/a.
	want := math.Exp(-0.00565*60) / 0.94
	if got := m.At(60); math.Abs(got-want) > 1e-12 {
		t.Errorf("At(60) = %v, want %v", got, want)
	}
	// Exponential at all lags: acf[2k] = acf[k]^2.
	if math.Abs(m.At(120)-m.At(60)*m.At(60)) > 1e-12 {
		t.Error("not exponential")
	}
	if _, err := SRDOnlyBackground(0, 0.9, 60); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := SRDOnlyBackground(0.01, 1.5, 60); err == nil {
		t.Error("bad attenuation accepted")
	}
}

func TestSRDOnlySaturation(t *testing.T) {
	// Tiny rate with strong attenuation: r/a > 1 must clamp, not blow up.
	m, err := SRDOnlyBackground(1e-6, 0.5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if v := m.At(60); v >= 1 || v <= 0 {
		t.Errorf("saturated At(60) = %v", v)
	}
}

func TestFGNOnlyBackground(t *testing.T) {
	m, err := FGNOnlyBackground(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0) != 1 || m.At(100) <= 0 {
		t.Error("bad fGn background")
	}
	for _, h := range []float64{0.5, 1.0, 0.3} {
		if _, err := FGNOnlyBackground(h); err == nil {
			t.Errorf("H=%v accepted", h)
		}
	}
}

func TestDAR1Validate(t *testing.T) {
	good := DAR1{Rho: 0.9, Marginal: dist.Gamma{Shape: 1, Scale: 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid DAR1 rejected: %v", err)
	}
	if err := (DAR1{Rho: 1, Marginal: dist.StdNormal}).Validate(); err == nil {
		t.Error("rho=1 accepted")
	}
	if err := (DAR1{Rho: 0.5}).Validate(); err == nil {
		t.Error("nil marginal accepted")
	}
}

func TestDAR1MarginalExact(t *testing.T) {
	d := DAR1{Rho: 0.8, Marginal: dist.Gamma{Shape: 2, Scale: 500}}
	r := rng.New(1)
	path := d.ArrivalPath(r, 200000)
	mean := stats.Mean(path)
	if math.Abs(mean-d.MeanRate()) > 0.03*d.MeanRate() {
		t.Errorf("DAR1 mean %v, want %v", mean, d.MeanRate())
	}
}

func TestDAR1ACFGeometric(t *testing.T) {
	d := DAR1{Rho: 0.7, Marginal: dist.Gamma{Shape: 1, Scale: 1}}
	r := rng.New(2)
	path := d.ArrivalPath(r, 400000)
	a := stats.Autocorrelation(path, 6)
	for k := 1; k <= 6; k++ {
		want := math.Pow(0.7, float64(k))
		if math.Abs(a[k]-want) > 0.03 {
			t.Errorf("DAR1 acf[%d] = %v, want %v", k, a[k], want)
		}
	}
	// Theoretical model agrees.
	model := d.ACF()
	if math.Abs(model.At(3)-math.Pow(0.7, 3)) > 1e-12 {
		t.Error("DAR1.ACF wrong")
	}
	// Rho=0 -> white noise model.
	if (DAR1{Rho: 0, Marginal: dist.StdNormal}).ACF().At(1) != 0 {
		t.Error("rho=0 should give white ACF")
	}
}

func TestMMPP2Validate(t *testing.T) {
	good := MMPP2{Rate0: 1, Rate1: 10, P01: 0.1, P10: 0.2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid MMPP rejected: %v", err)
	}
	bad := []MMPP2{
		{Rate0: -1, Rate1: 1, P01: 0.1, P10: 0.1},
		{Rate0: 1, Rate1: 1, P01: 0, P10: 0.1},
		{Rate0: 1, Rate1: 1, P01: 0.1, P10: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad MMPP %d accepted", i)
		}
	}
}

func TestMMPP2Stationary(t *testing.T) {
	m := MMPP2{Rate0: 2, Rate1: 20, P01: 0.05, P10: 0.15}
	if got, want := m.StationaryP1(), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("StationaryP1 = %v, want %v", got, want)
	}
	if got, want := m.MeanRate(), 0.75*2+0.25*20; math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanRate = %v, want %v", got, want)
	}
	if got, want := m.CorrelationDecay(), 0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("CorrelationDecay = %v, want %v", got, want)
	}
}

func TestMMPP2PathStatistics(t *testing.T) {
	m := MMPP2{Rate0: 2, Rate1: 20, P01: 0.05, P10: 0.15}
	r := rng.New(3)
	path := m.ArrivalPath(r, 300000)
	mean := stats.Mean(path)
	if math.Abs(mean-m.MeanRate()) > 0.05*m.MeanRate() {
		t.Errorf("MMPP mean %v, want %v", mean, m.MeanRate())
	}
	// Autocorrelation decays geometrically with the chain decay factor:
	// acf[k+1]/acf[k] ~ 0.8 once the Poisson noise at lag 0 is excluded.
	a := stats.Autocorrelation(path, 10)
	ratio := a[4] / a[2]
	if math.Abs(ratio-0.8*0.8) > 0.1 {
		t.Errorf("MMPP acf decay ratio = %v, want ~0.64", ratio)
	}
	// Counts are non-negative integers.
	for _, v := range path[:1000] {
		if v < 0 || v != math.Trunc(v) {
			t.Fatalf("bad count %v", v)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	r := rng.New(4)
	for _, mean := range []float64{0.5, 3, 25, 100} {
		const n = 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.02 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(variance-mean) > 0.1*mean+0.05 {
			t.Errorf("Poisson(%v) variance = %v", mean, variance)
		}
	}
}

func BenchmarkDAR1Path(b *testing.B) {
	d := DAR1{Rho: 0.9, Marginal: dist.Gamma{Shape: 2, Scale: 500}}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ArrivalPath(r, 1000)
	}
}
