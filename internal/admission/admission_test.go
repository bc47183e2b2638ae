package admission

import (
	"math"
	"testing"

	"vbrsim/internal/norros"
)

var testSrc = norros.Params{MeanRate: 3000, VarCoeff: 5e6, H: 0.85}

func testLink() Link {
	return Link{Capacity: 100000, Buffer: 300000, LossTarget: 1e-6}
}

func TestLinkValidate(t *testing.T) {
	if err := testLink().Validate(); err != nil {
		t.Errorf("valid link rejected: %v", err)
	}
	bad := []Link{
		{Capacity: 0, Buffer: 1, LossTarget: 0.1},
		{Capacity: 1, Buffer: 0, LossTarget: 0.1},
		{Capacity: 1, Buffer: 1, LossTarget: 0},
		{Capacity: 1, Buffer: 1, LossTarget: 1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad link %d accepted", i)
		}
	}
}

func TestRequiredCapacityScaling(t *testing.T) {
	l := testLink()
	c1, err := RequiredCapacity(testSrc, 1, l)
	if err != nil {
		t.Fatal(err)
	}
	c10, err := RequiredCapacity(testSrc, 10, l)
	if err != nil {
		t.Fatal(err)
	}
	// Requirement grows with n but sub-linearly in the burst component:
	// c(10) < 10*c(1) (statistical multiplexing gain) and c(10) > 10*mean.
	if c10 >= 10*c1 {
		t.Errorf("no multiplexing gain: c1=%v c10=%v", c1, c10)
	}
	if c10 <= 10*testSrc.MeanRate {
		t.Errorf("requirement below mean packing: %v", c10)
	}
	if _, err := RequiredCapacity(testSrc, 0, l); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestMaxSourcesProperties(t *testing.T) {
	l := testLink()
	n, err := MaxSources(testSrc, l)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("MaxSources = %d", n)
	}
	// n is admissible, n+1 is not.
	ok, err := Admissible(testSrc, n, l)
	if err != nil || !ok {
		t.Errorf("MaxSources count not admissible: %v %v", ok, err)
	}
	ok, err = Admissible(testSrc, n+1, l)
	if err != nil || ok {
		t.Errorf("MaxSources+1 admissible: %v %v", ok, err)
	}
	// Cannot exceed mean packing.
	if float64(n)*testSrc.MeanRate > l.Capacity {
		t.Errorf("admitted load exceeds capacity: %d sources", n)
	}
}

func TestMaxSourcesMonotoneInCapacity(t *testing.T) {
	small := testLink()
	big := small
	big.Capacity *= 2
	nSmall, err := MaxSources(testSrc, small)
	if err != nil {
		t.Fatal(err)
	}
	nBig, err := MaxSources(testSrc, big)
	if err != nil {
		t.Fatal(err)
	}
	if nBig <= nSmall {
		t.Errorf("doubling capacity did not admit more: %d vs %d", nSmall, nBig)
	}
	// Tighter loss target admits fewer.
	strict := small
	strict.LossTarget = 1e-9
	nStrict, err := MaxSources(testSrc, strict)
	if err != nil {
		t.Fatal(err)
	}
	if nStrict > nSmall {
		t.Errorf("stricter target admitted more: %d vs %d", nStrict, nSmall)
	}
}

func TestLRDBacksOffVsMarkovian(t *testing.T) {
	// The whole point: the LRD-aware controller admits fewer sources than
	// the Markovian (H=1/2) one at the same link, because the buffer buys
	// less against self-similar traffic.
	l := testLink()
	lrd, err := MaxSources(testSrc, l)
	if err != nil {
		t.Fatal(err)
	}
	markov, err := MarkovianMaxSources(testSrc, l)
	if err != nil {
		t.Fatal(err)
	}
	if lrd >= markov {
		t.Errorf("LRD admission (%d) not more conservative than Markovian (%d)", lrd, markov)
	}
	// The gap should be substantial at this buffer depth.
	if float64(markov-lrd)/float64(markov) < 0.02 {
		t.Errorf("LRD back-off suspiciously small: %d vs %d", lrd, markov)
	}
}

func TestAdmissionLossVerified(t *testing.T) {
	// The Norros bound at the admitted count must respect the loss target
	// (by construction) and be within an order of magnitude of it at the
	// boundary (the search is tight).
	l := testLink()
	n, err := MaxSources(testSrc, l)
	if err != nil {
		t.Fatal(err)
	}
	agg := norros.Params{
		MeanRate: float64(n) * testSrc.MeanRate,
		VarCoeff: float64(n) * testSrc.VarCoeff,
		H:        testSrc.H,
	}
	_, expF, err := agg.OverflowProbability(l.Capacity, l.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if expF > l.LossTarget*1.0000001 {
		t.Errorf("admitted load violates target: %v > %v", expF, l.LossTarget)
	}
	if math.Log10(l.LossTarget)-math.Log10(expF) > 1.5 {
		t.Errorf("admission too loose: achieved %v vs target %v", expF, l.LossTarget)
	}
}
