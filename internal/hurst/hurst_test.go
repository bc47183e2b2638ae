package hurst

import (
	"math"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/rng"
)

// fgnPath generates an exact fGn sample path of length n with Hurst h.
func fgnPath(t testing.TB, h float64, n int, seed uint64) []float64 {
	t.Helper()
	p, err := daviesharte.NewPlan(acf.FGN{H: h}, n, daviesharte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p.Path(rng.New(seed))
}

func TestVarianceTimeRecoversH(t *testing.T) {
	for _, h := range []float64{0.6, 0.75, 0.9} {
		x := fgnPath(t, h, 1<<18, 42)
		est, err := VarianceTime(x, VarianceTimeOptions{})
		if err != nil {
			t.Fatalf("H=%v: %v", h, err)
		}
		if math.Abs(est.H-h) > 0.07 {
			t.Errorf("variance-time H = %v, want %v", est.H, h)
		}
		if est.R2 < 0.9 {
			t.Errorf("H=%v: poor fit R2=%v", h, est.R2)
		}
		if len(est.X) != len(est.Y) || len(est.X) < 3 {
			t.Errorf("H=%v: bad plot points", h)
		}
	}
}

func TestVarianceTimeWhiteNoiseGivesHalf(t *testing.T) {
	r := rng.New(1)
	x := make([]float64, 1<<18)
	for i := range x {
		x[i] = r.Norm()
	}
	est, err := VarianceTime(x, VarianceTimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.H-0.5) > 0.05 {
		t.Errorf("white noise H = %v, want 0.5", est.H)
	}
	// Slope should be ~ -1 for iid data.
	if math.Abs(est.Slope+1) > 0.1 {
		t.Errorf("white noise VT slope = %v, want -1", est.Slope)
	}
}

func TestRSRecoversH(t *testing.T) {
	for _, h := range []float64{0.6, 0.9} {
		x := fgnPath(t, h, 1<<18, 7)
		est, err := RS(x, RSOptions{})
		if err != nil {
			t.Fatalf("H=%v: %v", h, err)
		}
		// R/S is known to be biased for short windows; allow a wider band.
		if math.Abs(est.H-h) > 0.1 {
			t.Errorf("R/S H = %v, want %v", est.H, h)
		}
	}
}

func TestRSWhiteNoise(t *testing.T) {
	r := rng.New(3)
	x := make([]float64, 1<<17)
	for i := range x {
		x[i] = r.Norm()
	}
	est, err := RS(x, RSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// R/S converges slowly toward 0.5 from above for iid data.
	if est.H < 0.45 || est.H > 0.65 {
		t.Errorf("white noise R/S H = %v, want ~0.5-0.6", est.H)
	}
}

func TestCombined(t *testing.T) {
	x := fgnPath(t, 0.9, 1<<18, 17)
	h, vt, rs, err := Combined(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-0.9) > 0.08 {
		t.Errorf("combined H = %v, want 0.9", h)
	}
	if math.Abs(h-(vt.H+rs.H)/2) > 1e-12 {
		t.Error("combined H is not the average of the two estimates")
	}
}

func TestShortSeriesErrors(t *testing.T) {
	short := make([]float64, 50)
	if _, err := VarianceTime(short, VarianceTimeOptions{}); err == nil {
		t.Error("VarianceTime accepted short series")
	}
	if _, err := RS(short, RSOptions{}); err == nil {
		t.Error("RS accepted short series")
	}
	if _, _, _, err := Combined(short); err == nil {
		t.Error("Combined accepted short series")
	}
}

func TestConstantSeries(t *testing.T) {
	x := make([]float64, 1<<14)
	for i := range x {
		x[i] = 5
	}
	if _, err := VarianceTime(x, VarianceTimeOptions{MinM: 4, MaxM: 256}); err == nil {
		t.Error("VarianceTime accepted constant series")
	}
	if _, err := RS(x, RSOptions{}); err == nil {
		t.Error("RS accepted constant series")
	}
}

func TestEstimatorsAgreeOnSameSeries(t *testing.T) {
	// The paper's two estimators should agree within ~0.05 on a long
	// exactly self-similar series, as they do on the empirical trace
	// (0.89 vs 0.92).
	x := fgnPath(t, 0.9, 1<<18, 23)
	vt, err := VarianceTime(x, VarianceTimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RS(x, RSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vt.H-rs.H) > 0.1 {
		t.Errorf("VT %v and R/S %v disagree strongly", vt.H, rs.H)
	}
}

func TestVarianceTimeOnAR1IsNotLRD(t *testing.T) {
	// A strongly correlated SRD process must still estimate near 0.5 once
	// aggregation exceeds the correlation time.
	r := rng.New(29)
	phi := 0.9
	n := 1 << 19
	x := make([]float64, n)
	scale := math.Sqrt(1 - phi*phi)
	for i := 1; i < n; i++ {
		x[i] = phi*x[i-1] + scale*r.Norm()
	}
	est, err := VarianceTime(x, VarianceTimeOptions{MinM: 500})
	if err != nil {
		t.Fatal(err)
	}
	if est.H > 0.62 {
		t.Errorf("AR(1) variance-time H = %v, want near 0.5", est.H)
	}
}

func BenchmarkVarianceTime(b *testing.B) {
	x := fgnPath(b, 0.9, 1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VarianceTime(x, VarianceTimeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRS(b *testing.B) {
	x := fgnPath(b, 0.9, 1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RS(x, RSOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
