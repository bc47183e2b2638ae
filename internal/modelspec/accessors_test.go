package modelspec

import (
	"context"
	"math"
	"testing"
)

func TestTargetHurst(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want float64
	}{
		{"fit metadata wins", Spec{H: 0.9, ACF: ACFSpec{Kind: ACFFGN, H: 0.75}}, 0.9},
		{"fgn implied", Spec{ACF: ACFSpec{Kind: ACFFGN, H: 0.75}}, 0.75},
		{"composite implied", Spec{ACF: ACFSpec{Weights: []float64{1}, Rates: []float64{0.01}, L: 1.6, Beta: 0.2, Knee: 60}}, 0.9},
		{"farima implied", Spec{ACF: ACFSpec{Kind: ACFFarima, D: 0.3}}, 0.8},
		{"no claim", Spec{Engine: EngineGOP, GOP: &GOPSpec{}}, 0},
	}
	for _, c := range cases {
		if got := c.spec.TargetHurst(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: TargetHurst = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestStreamImpliedACF(t *testing.T) {
	spec := Paper()
	spec.Seed = 7
	st, err := spec.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rho := st.ImpliedACF(256)
	if len(rho) != 256 {
		t.Fatalf("len = %d", len(rho))
	}
	if rho[0] != 1 {
		t.Errorf("rho[0] = %v, want 1", rho[0])
	}
	// The attenuated implied ACF must sit strictly inside the background's:
	// 0 < rho_Y(k) < rho_X(k) for the paper's positively correlated model.
	bg := st.g.trunc.ImpliedACF(256)
	for k := 1; k < 256; k++ {
		if rho[k] <= 0 || rho[k] >= bg[k] {
			t.Fatalf("lag %d: attenuated rho = %v outside (0, %v)", k, rho[k], bg[k])
		}
	}
	if st.Marginal() == nil {
		t.Error("transform-engine stream has no marginal")
	}
	if q := st.Marginal().Quantile(0.5); q <= 0 {
		t.Errorf("lognormal median = %v", q)
	}
}

func TestStreamImpliedACFAbsentForGOPAndTES(t *testing.T) {
	gop := Spec{Engine: EngineGOP, GOP: &GOPSpec{}, Seed: 3}
	st, err := gop.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.ImpliedACF(64) != nil {
		t.Error("gop stream reported an implied ACF")
	}
	if st.Marginal() != nil {
		t.Error("gop stream reported an analytic marginal")
	}

	tesSpec := Spec{
		Engine:   EngineTES,
		TES:      &TESSpec{Alpha: 0.3},
		Marginal: &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
		Seed:     3,
	}
	st2, err := tesSpec.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.ImpliedACF(64) != nil {
		t.Error("tes stream reported an implied ACF")
	}
	if st2.Marginal() == nil {
		t.Error("tes stream lost its marginal")
	}
}
