package queue

import (
	"math"
	"testing"

	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
)

func TestSegmentIntoCellsConservation(t *testing.T) {
	frames := []float64{100, 48, 49, 0, 4800}
	cells, err := SegmentIntoCells(frames, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 1, 2, 0, 100}
	for i := range want {
		if cells[i] != want[i] {
			t.Errorf("frame %d: %v cells, want %v", i, cells[i], want[i])
		}
	}
}

func TestSegmentIntoCellsSpreading(t *testing.T) {
	frames := []float64{480} // 10 cells
	cells, err := SegmentIntoCells(frames, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("len = %d, want 4", len(cells))
	}
	// 10 cells over 4 slots: 3,3,2,2.
	want := []float64{3, 3, 2, 2}
	var sum float64
	for i := range cells {
		if cells[i] != want[i] {
			t.Errorf("slot %d: %v, want %v", i, cells[i], want[i])
		}
		sum += cells[i]
	}
	if sum != 10 {
		t.Errorf("cells not conserved: %v", sum)
	}
}

func TestSegmentSpreadingReducesPeaks(t *testing.T) {
	r := rng.New(1)
	frames := make([]float64, 1000)
	for i := range frames {
		frames[i] = r.Gamma(2, 2000)
	}
	burst, err := SegmentIntoCells(frames, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := SegmentIntoCells(frames, 48, 15)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Max(spread) >= stats.Max(burst) {
		t.Errorf("spreading did not reduce slot peak: %v vs %v", stats.Max(spread), stats.Max(burst))
	}
	// Total cells conserved.
	var a, b float64
	for _, v := range burst {
		a += v
	}
	for _, v := range spread {
		b += v
	}
	if a != b {
		t.Errorf("spreading changed cell count: %v vs %v", a, b)
	}
}

func TestSegmentValidation(t *testing.T) {
	if _, err := SegmentIntoCells([]float64{1}, 0, 1); err == nil {
		t.Error("zero payload accepted")
	}
	if _, err := SegmentIntoCells([]float64{1}, 48, 0); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := SegmentIntoCells([]float64{-1}, 48, 1); err == nil {
		t.Error("negative frame accepted")
	}
}

func TestSuperpositionMoments(t *testing.T) {
	base := iidSource{mean: 2}
	super := Superposition{Base: base, N: 8}
	r := rng.New(2)
	path := super.ArrivalPath(r, 20000)
	mean := stats.Mean(path)
	if math.Abs(mean-16) > 0.5 {
		t.Errorf("superposed mean = %v, want 16", mean)
	}
	// Independent superposition: variance adds too (iid exponential:
	// var = N * mean^2).
	v := stats.Variance(path)
	if math.Abs(v-8*4) > 3 {
		t.Errorf("superposed variance = %v, want ~32", v)
	}
}

func TestSuperpositionSmoothsRelativeBurstiness(t *testing.T) {
	// The coefficient of variation of the aggregate of N iid sources falls
	// like 1/sqrt(N) — the statistical multiplexing gain.
	base := iidSource{mean: 1}
	r1, r2 := rng.New(3), rng.New(4)
	one := base.ArrivalPath(r1, 50000)
	agg := Superposition{Base: base, N: 16}.ArrivalPath(r2, 50000)
	cv1 := stats.StdDev(one) / stats.Mean(one)
	cvN := stats.StdDev(agg) / stats.Mean(agg)
	if cvN > cv1/2 {
		t.Errorf("multiplexing did not smooth: cv1=%v cvN=%v", cv1, cvN)
	}
}

func TestSuperpositionLowersLossAtEqualUtilization(t *testing.T) {
	// Same utilization, N times the capacity: the aggregate of N sources
	// overflows a proportionally scaled buffer less often.
	base := iidSource{mean: 1}
	util := 0.8
	single, err := EstimateOverflow(base, 1/util, 8, 200, MCOptions{Replications: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := 16
	multi, err := EstimateOverflow(Superposition{Base: base, N: n}, float64(n)/util, 8*float64(n), 200,
		MCOptions{Replications: 1000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if single.P < 0.005 {
		t.Fatalf("single-source event too rare for the test: %v", single.P)
	}
	if multi.P >= single.P {
		t.Errorf("no multiplexing gain: single %v vs multiplexed %v", single.P, multi.P)
	}
}

func TestSuperpositionPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=0 did not panic")
		}
	}()
	Superposition{Base: iidSource{mean: 1}, N: 0}.ArrivalPath(rng.New(1), 10)
}
