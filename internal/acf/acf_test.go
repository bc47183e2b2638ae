package acf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllModelsLagZeroIsOne(t *testing.T) {
	models := map[string]Model{
		"exponential": Exponential{Lambda: 0.01},
		"powerlaw":    PowerLaw{L: 1.5, Beta: 0.2},
		"fgn":         FGN{H: 0.9},
		"white":       White{},
		"composite":   PaperComposite(),
		"scaled":      Scaled{Base: PaperComposite(), Factor: 12},
		"clamped":     Clamped{Base: PaperComposite()},
	}
	for name, m := range models {
		if got := m.At(0); got != 1 {
			t.Errorf("%s.At(0) = %v, want 1", name, got)
		}
		if got := m.At(-3); got != 1 {
			t.Errorf("%s.At(-3) = %v, want 1", name, got)
		}
	}
}

func TestExponentialDecay(t *testing.T) {
	e := Exponential{Lambda: 0.1}
	for k := 1; k < 100; k++ {
		want := math.Exp(-0.1 * float64(k))
		if got := e.At(k); math.Abs(got-want) > 1e-15 {
			t.Fatalf("At(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestPowerLawClamp(t *testing.T) {
	p := PowerLaw{L: 5, Beta: 0.2}
	if got := p.At(1); got != 1 {
		t.Errorf("At(1) with L>1 = %v, want clamp to 1", got)
	}
	if got := p.At(10000); got >= 1 {
		t.Errorf("At(1e4) = %v, want < 1", got)
	}
}

func TestFGNKnownProperties(t *testing.T) {
	// H=0.5 is white noise.
	f := FGN{H: 0.5}
	for k := 1; k < 10; k++ {
		if got := f.At(k); math.Abs(got) > 1e-12 {
			t.Errorf("FGN(0.5).At(%d) = %v, want 0", k, got)
		}
	}
	// H>0.5: positive correlations decaying as H(2H-1)k^{2H-2} asymptotically.
	g := FGN{H: 0.9}
	prev := 1.0
	for k := 1; k < 1000; k++ {
		v := g.At(k)
		if v <= 0 || v >= prev {
			t.Fatalf("FGN(0.9) not positive decreasing at lag %d: %v (prev %v)", k, v, prev)
		}
		prev = v
	}
	// Asymptotic slope check at large k.
	k := 1000.0
	asym := 0.9 * (2*0.9 - 1) * math.Pow(k, 2*0.9-2)
	if math.Abs(g.At(1000)-asym)/asym > 0.01 {
		t.Errorf("FGN asymptote: got %v, want ~%v", g.At(1000), asym)
	}
	// H<0.5: negative correlation at lag 1.
	h := FGN{H: 0.3}
	if h.At(1) >= 0 {
		t.Errorf("FGN(0.3).At(1) = %v, want negative", h.At(1))
	}
}

func TestPaperCompositeMatchesEq13(t *testing.T) {
	c := PaperComposite()
	// Below knee: exp(-0.00565093 k).
	if got, want := c.At(30), math.Exp(-0.00565093*30); math.Abs(got-want) > 1e-12 {
		t.Errorf("At(30) = %v, want %v", got, want)
	}
	// At and beyond knee: 1.59468 k^-0.2.
	if got, want := c.At(60), 1.59468*math.Pow(60, -0.2); math.Abs(got-want) > 1e-12 {
		t.Errorf("At(60) = %v, want %v", got, want)
	}
	if got, want := c.At(500), 1.59468*math.Pow(500, -0.2); math.Abs(got-want) > 1e-12 {
		t.Errorf("At(500) = %v, want %v", got, want)
	}
	// Near-continuity at the knee (the paper's fit has a small gap).
	if gap := c.ContinuityGap(); gap > 0.01 {
		t.Errorf("continuity gap = %v, want < 0.01", gap)
	}
	if c.Hurst() != 0.9 {
		t.Errorf("Hurst = %v, want 0.9", c.Hurst())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("paper composite invalid: %v", err)
	}
}

func TestCompositeValidate(t *testing.T) {
	bad := []Composite{
		{Weights: []float64{1}, Rates: []float64{0.1, 0.2}, L: 1, Beta: 0.2, Knee: 10},
		{Weights: nil, Rates: nil, L: 1, Beta: 0.2, Knee: 10},
		{Weights: []float64{1}, Rates: []float64{-0.1}, L: 1, Beta: 0.2, Knee: 10},
		{Weights: []float64{1}, Rates: []float64{0.1}, L: 1, Beta: 1.2, Knee: 10},
		{Weights: []float64{1}, Rates: []float64{0.1}, L: 0, Beta: 0.2, Knee: 10},
		{Weights: []float64{1}, Rates: []float64{0.1}, L: 1, Beta: 0.2, Knee: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid composite accepted", i)
		}
	}
}

func TestScaledInterpolation(t *testing.T) {
	base := Exponential{Lambda: 0.1}
	s := Scaled{Base: base, Factor: 12}
	// At multiples of the factor it matches the base exactly.
	for _, k := range []int{12, 24, 120} {
		if got, want := s.At(k), base.At(k/12); math.Abs(got-want) > 1e-15 {
			t.Errorf("At(%d) = %v, want %v", k, got, want)
		}
	}
	// Between multiples it interpolates linearly.
	got := s.At(18) // halfway between base(1) and base(2)
	want := (base.At(1) + base.At(2)) / 2
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("At(18) = %v, want %v", got, want)
	}
	// Factor <= 1 degenerates to the base.
	id := Scaled{Base: base, Factor: 1}
	if id.At(7) != base.At(7) {
		t.Error("Factor=1 should be identity")
	}
}

func TestTable(t *testing.T) {
	tab := Table(Exponential{Lambda: 0.5}, 5)
	if len(tab) != 6 || tab[0] != 1 {
		t.Fatalf("Table len=%d first=%v", len(tab), tab[0])
	}
	for k := 1; k <= 5; k++ {
		if tab[k] != math.Exp(-0.5*float64(k)) {
			t.Fatalf("Table[%d] wrong", k)
		}
	}
}

func TestFitCompositeRecoversKnownModel(t *testing.T) {
	truth := Composite{
		Weights: []float64{1},
		Rates:   []float64{0.02},
		L:       1.4,
		Beta:    0.25,
		Knee:    50,
	}
	empirical := Table(truth, 500)
	got, err := FitComposite(empirical, FitOptions{Knee: 50, AllowDiscontinuous: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Rates[0]-0.02) > 1e-6 {
		t.Errorf("rate = %v, want 0.02", got.Rates[0])
	}
	if math.Abs(got.Beta-0.25) > 1e-6 {
		t.Errorf("beta = %v, want 0.25", got.Beta)
	}
	if math.Abs(got.L-1.4) > 1e-4 {
		t.Errorf("L = %v, want 1.4", got.L)
	}

	// The default fit enforces continuity (eq. 12) while preserving the tail.
	cont, err := FitComposite(empirical, FitOptions{Knee: 50})
	if err != nil {
		t.Fatal(err)
	}
	if gap := cont.ContinuityGap(); gap > 1e-9 {
		t.Errorf("default fit continuity gap = %v", gap)
	}
	for _, k := range []int{50, 100, 400} {
		if math.Abs(cont.At(k)-truth.At(k)) > 1e-6 {
			t.Errorf("continuous fit changed the LRD tail at lag %d", k)
		}
	}
}

func TestContinuousMethod(t *testing.T) {
	raw := PaperComposite()
	cont := raw.Continuous()
	if gap := cont.ContinuityGap(); gap > 1e-12 {
		t.Errorf("Continuous() gap = %v", gap)
	}
	// Single-exponential adjustment must preserve the tail exactly.
	for _, k := range []int{60, 200, 500} {
		if cont.At(k) != raw.At(k) {
			t.Errorf("Continuous() changed tail at lag %d", k)
		}
	}
	// Multi-exponential variant adjusts L instead.
	multi := Composite{
		Weights: []float64{0.6, 0.4},
		Rates:   []float64{0.01, 0.1},
		L:       1.59468, Beta: 0.2, Knee: 60,
	}
	mc := multi.Continuous()
	if gap := mc.ContinuityGap(); gap > 1e-12 {
		t.Errorf("multi Continuous() gap = %v", gap)
	}
	for k := 1; k < 60; k++ {
		if mc.At(k) != multi.At(k) {
			t.Errorf("multi Continuous() changed SRD at lag %d", k)
		}
	}
}

func TestFitCompositeAutoKnee(t *testing.T) {
	truth := PaperComposite()
	empirical := Table(truth, 500)
	got, err := FitComposite(empirical, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Knee < 40 || got.Knee > 80 {
		t.Errorf("detected knee = %d, want near 60", got.Knee)
	}
	if math.Abs(got.Beta-0.2) > 0.03 {
		t.Errorf("beta = %v, want ~0.2", got.Beta)
	}
	if math.Abs(got.Rates[0]-0.00565) > 0.002 {
		t.Errorf("rate = %v, want ~0.00565", got.Rates[0])
	}
}

func TestFitCompositeFixedBeta(t *testing.T) {
	truth := PaperComposite()
	empirical := Table(truth, 500)
	got, err := FitComposite(empirical, FitOptions{Knee: 60, Beta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Beta != 0.2 {
		t.Errorf("beta = %v, want exactly 0.2", got.Beta)
	}
	if math.Abs(got.L-1.59468) > 0.02 {
		t.Errorf("L = %v, want ~1.59468", got.L)
	}
}

func TestFitCompositeErrors(t *testing.T) {
	if _, err := FitComposite([]float64{1, 0.9}, FitOptions{}); err == nil {
		t.Error("short ACF accepted")
	}
	empirical := Table(PaperComposite(), 100)
	if _, err := FitComposite(empirical, FitOptions{Knee: 99}); err == nil {
		t.Error("knee at edge accepted")
	}
}

func TestDetectKneeOnSyntheticData(t *testing.T) {
	for _, trueKnee := range []int{30, 60, 90} {
		truth := Composite{
			Weights: []float64{1},
			Rates:   []float64{0.03},
			L:       0, Beta: 0.2, Knee: trueKnee,
		}
		// Anchor L for continuity so the knee is identifiable.
		srdAtKnee := math.Exp(-0.03 * float64(trueKnee))
		truth.L = srdAtKnee * math.Pow(float64(trueKnee), 0.2)
		empirical := Table(truth, 400)
		got, err := detectKnee(empirical, 10, 150, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got < trueKnee-10 || got > trueKnee+10 {
			t.Errorf("true knee %d: detected %d", trueKnee, got)
		}
	}
}

func TestCompensate(t *testing.T) {
	rhat := PaperComposite()
	a := 0.94
	comp, err := Compensate(rhat, a)
	if err != nil {
		t.Fatal(err)
	}
	// LRD part must be scaled up by 1/a.
	for _, k := range []int{60, 100, 500} {
		want := rhat.At(k) / a
		if got := comp.At(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("compensated At(%d) = %v, want %v", k, got, want)
		}
	}
	// SRD part: eq. 14 pins the value at the knee.
	wantAtKnee := rhat.At(rhat.Knee) / a
	if got := math.Exp(-comp.Rates[0] * float64(rhat.Knee)); math.Abs(got-wantAtKnee) > 1e-12 {
		t.Errorf("eq.14: exp(-lambda Kt) = %v, want %v", got, wantAtKnee)
	}
	// Compensated model is continuous at the knee by construction.
	if gap := comp.ContinuityGap(); gap > 1e-9 {
		t.Errorf("compensated continuity gap = %v", gap)
	}
}

func TestCompensateBadAttenuation(t *testing.T) {
	for _, a := range []float64{0, -0.5, 1.5} {
		if _, err := Compensate(PaperComposite(), a); err == nil {
			t.Errorf("attenuation %v accepted", a)
		}
	}
}

func TestCompensateIdentityWhenAIsOne(t *testing.T) {
	rhat := PaperComposite()
	comp, err := Compensate(rhat, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{100, 200, 400} {
		if math.Abs(comp.At(k)-rhat.At(k)) > 1e-9 {
			t.Errorf("a=1 should be near-identity in LRD regime at lag %d", k)
		}
	}
}

func TestCompensateSaturation(t *testing.T) {
	// Moderate attenuation pushing the tail up must still yield a valid
	// (convex, positive-definite) model, possibly with a later knee.
	rhat := Composite{Weights: []float64{1}, Rates: []float64{0.01}, L: 1.2, Beta: 0.3, Knee: 30}
	comp, err := Compensate(rhat, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Rates[0] <= 0 {
		t.Errorf("saturated compensation produced rate %v", comp.Rates[0])
	}
	if !comp.ConvexAtKnee() {
		t.Error("compensated model is not convex at the knee")
	}
	// A pathological compensation (tail level 3 with beta 0.2 stays above 1
	// until lag ~243) must fail gracefully instead of producing a bogus
	// correlation function.
	bad := Composite{Weights: []float64{1}, Rates: []float64{0.0001}, L: 1.5, Beta: 0.2, Knee: 10}
	if _, err := Compensate(bad, 0.5); err == nil {
		t.Error("pathological compensation accepted")
	}
}

func TestEnsureConvex(t *testing.T) {
	// A concave corner (lambda < beta/knee) must be repaired.
	c := Composite{Weights: []float64{1}, Rates: []float64{0.004}, L: 1.45, Beta: 0.18, Knee: 10}
	if c.ConvexAtKnee() {
		t.Fatal("test case should start concave")
	}
	fixed, err := c.EnsureConvex()
	if err != nil {
		t.Fatal(err)
	}
	if !fixed.ConvexAtKnee() {
		t.Error("EnsureConvex left a concave knee")
	}
	if gap := fixed.ContinuityGap(); gap > 1e-9 {
		t.Errorf("EnsureConvex broke continuity: gap %v", gap)
	}
	// Tail preserved exactly beyond the new knee.
	for _, k := range []int{fixed.Knee, fixed.Knee + 50, 400} {
		if math.Abs(fixed.At(k)-c.L*math.Pow(float64(k), -c.Beta)) > 1e-12 {
			t.Errorf("tail changed at lag %d", k)
		}
	}
	// An already-convex model passes through unchanged.
	good := PaperComposite().Continuous()
	same, err := good.EnsureConvex()
	if err != nil {
		t.Fatal(err)
	}
	if same.Knee != good.Knee || same.Rates[0] != good.Rates[0] {
		t.Error("EnsureConvex modified a convex model")
	}
}

func TestClamped(t *testing.T) {
	c := Clamped{Base: PowerLaw{L: 5, Beta: 0.1}}
	if got := c.At(1); got >= 1 {
		t.Errorf("clamped At(1) = %v, want < 1", got)
	}
	if got := c.At(0); got != 1 {
		t.Errorf("clamped At(0) = %v, want 1", got)
	}
}

func TestQuickCompositeBounded(t *testing.T) {
	// Any validated composite stays in (0, 1] over a wide lag range.
	f := func(rateRaw, betaRaw float64, kneeRaw uint8) bool {
		rate := 0.001 + math.Mod(math.Abs(rateRaw), 0.5)
		beta := 0.05 + math.Mod(math.Abs(betaRaw), 0.9)
		knee := 2 + int(kneeRaw)%200
		srdAtKnee := math.Exp(-rate * float64(knee))
		c := Composite{
			Weights: []float64{1},
			Rates:   []float64{rate},
			L:       srdAtKnee * math.Pow(float64(knee), beta),
			Beta:    beta,
			Knee:    knee,
		}
		if c.Validate() != nil {
			return true // skip invalid parameter draws
		}
		for k := 0; k < 1000; k++ {
			v := c.At(k)
			if v <= 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickContinuousConvexCompositesAreValid(t *testing.T) {
	// Property: for any parameter draw, Continuous() + EnsureConvex()
	// yields a composite that is positive, decreasing and convex at every
	// lag — the preconditions under which Pólya's criterion guarantees it
	// is a valid correlation function. (Positive definiteness itself is
	// exercised end-to-end in the hosking package tests.)
	f := func(rateRaw, betaRaw, lRaw float64, kneeRaw uint8) bool {
		rate := 0.002 + math.Mod(math.Abs(rateRaw), 0.5)
		beta := 0.05 + math.Mod(math.Abs(betaRaw), 0.85)
		l := 0.3 + math.Mod(math.Abs(lRaw), 1.2)
		knee := 5 + int(kneeRaw)%150
		c := Composite{
			Weights: []float64{1},
			Rates:   []float64{rate},
			L:       l,
			Beta:    beta,
			Knee:    knee,
		}
		c = c.Continuous()
		c, err := c.EnsureConvex()
		if err != nil {
			return true // rejected as inconsistent — acceptable outcome
		}
		if c.Validate() != nil || !c.ConvexAtKnee() {
			return false
		}
		prev := 1.0
		prevDiff := 0.0
		for k := 1; k < 600; k++ {
			v := c.At(k)
			if v <= 0 || v > prev+1e-12 {
				return false
			}
			diff := v - prev
			// Discrete convexity: differences are non-decreasing, allowing
			// a small numeric slack at the spliced knee.
			if k > 1 && diff < prevDiff-1e-9 {
				return false
			}
			prev, prevDiff = v, diff
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompositeAt(b *testing.B) {
	c := PaperComposite()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += c.At(i % 1000)
	}
	_ = sink
}

func BenchmarkFitComposite(b *testing.B) {
	empirical := Table(PaperComposite(), 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitComposite(empirical, FitOptions{Knee: 60}); err != nil {
			b.Fatal(err)
		}
	}
}
