package server

import (
	"io"
	"net/http"
	"sort"
	"testing"

	"vbrsim/internal/modelspec"
)

// TestEstimateStreamCost pins the per-engine cost classes and the plan-size
// factor of modelspec.Spec.Cost, which admission charges per stream: costs
// are spec-only (no plan is built), so these are pure.
func TestEstimateStreamCost(t *testing.T) {
	composite := func(knee int) modelspec.ACFSpec {
		return modelspec.ACFSpec{Kind: "composite", Knee: knee}
	}
	cases := []struct {
		name string
		spec modelspec.Spec
		want float64
	}{
		{"tes", modelspec.Spec{Engine: modelspec.EngineTES}, 1},
		{"gop", modelspec.Spec{Engine: modelspec.EngineGOP}, 2},
		{"block no knee", modelspec.Spec{Engine: modelspec.EngineBlock}, 4},
		{"block knee 256", modelspec.Spec{Engine: modelspec.EngineBlock, ACF: composite(256)}, 8},
		{"truncated no knee", modelspec.Spec{Engine: modelspec.EngineTruncated}, 8},
		{"truncated default engine", modelspec.Spec{}, 8},
		{"truncated knee 512", modelspec.Spec{Engine: modelspec.EngineTruncated, ACF: composite(512)}, 24},
		{"paper model", modelspec.Paper(), 8 * (1 + float64(modelspec.Paper().ACF.Knee)/256)},
	}
	for _, tc := range cases {
		if got := tc.spec.Cost(); got != tc.want {
			t.Errorf("%s: cost %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAdmissionReserveRelease walks the gate through its rejection ladder:
// budget, pressure, cap, drain — and checks release restores capacity.
func TestAdmissionReserveRelease(t *testing.T) {
	a := newAdmission(100, 3)

	if err := a.reserve(60); err != nil {
		t.Fatal(err)
	}
	// 60/100 used: below the pressure knee, so anything that fits the
	// remaining 40 is admitted.
	if err := a.reserve(39); err != nil {
		t.Fatalf("cost 39 with 40 remaining rejected: %v", err)
	}
	// 99/100 used, over the knee: remaining 1, pressure limit 0.5.
	if err := a.reserve(0.4); err != nil {
		t.Fatalf("cost 0.4 under the pressure limit rejected: %v", err)
	}
	// Session cap (3) is absolute regardless of cost.
	if err := a.reserve(0.01); err == nil {
		t.Fatal("4th session admitted past the cap")
	} else if err.reason != rejectCap {
		t.Fatalf("cap rejection reason = %v", err)
	}
	a.release(0.4)
	// Budget rejection: cost beyond what remains.
	if err := a.reserve(2); err == nil {
		t.Fatal("cost 2 with 1 remaining admitted")
	} else if err.reason != rejectBudget {
		t.Fatalf("budget rejection reason = %v", err)
	}
	// Pressure rejection: fits the budget but over half the remainder.
	if err := a.reserve(0.9); err == nil {
		t.Fatal("cost 0.9 over the pressure limit admitted")
	} else if err.reason != rejectPressure {
		t.Fatalf("pressure rejection reason = %v", err)
	}
	a.release(60)
	a.release(39)
	if got := a.usedCost(); got != 0 {
		t.Fatalf("used cost after full release = %v, want 0", got)
	}
	a.beginDrain()
	if err := a.reserve(1); err == nil {
		t.Fatal("reserve admitted while draining")
	} else if err.reason != rejectDrain {
		t.Fatalf("drain rejection reason = %v", err)
	}
}

// TestAdmissionShedOrderMonotone is the shed-order property: at any budget
// fill level, admissibility is downward-closed in cost — if a request is
// admitted, every cheaper request would have been admitted too. This is
// what makes cost-aware shedding fair: pressure sheds the expensive tail,
// never a cheap request ahead of a dearer one.
func TestAdmissionShedOrderMonotone(t *testing.T) {
	costs := []float64{0.1, 0.5, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	sort.Float64s(costs)
	for _, used := range []float64{0, 40, 70, 76, 90, 99, 99.9} {
		a := newAdmission(100, 1000)
		if used > 0 {
			if err := a.reserve(used); err != nil {
				t.Fatalf("seeding used=%v: %v", used, err)
			}
		}
		admitted := make([]bool, len(costs))
		for i, c := range costs {
			// Probe admissibility at this state: reserve, record, undo.
			if err := a.reserve(c); err == nil {
				admitted[i] = true
				a.release(c)
			}
		}
		for i := 1; i < len(costs); i++ {
			if admitted[i] && !admitted[i-1] {
				t.Fatalf("used=%v: cost %v admitted but cheaper %v rejected — shed order is not monotone",
					used, costs[i], costs[i-1])
			}
		}
	}
}

// TestAdmissionReleasePanicsOnNegative pins the accounting tripwire: a
// double release is a bug, not a state to limp through.
func TestAdmissionReleasePanicsOnNegative(t *testing.T) {
	a := newAdmission(10, 10)
	if err := a.reserve(1); err != nil {
		t.Fatal(err)
	}
	a.release(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	a.release(1)
}

// TestRejectedCreateLeavesNoState is the regression test for the leak
// class PR 7 fixed and this refactor must preserve: a rejected or failed
// create never leaves a session, a cost reservation, or engine accounting
// behind, for both streams and trunks.
func TestRejectedCreateLeavesNoState(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxSessions: 1})

	kept := createStream(t, ts.URL, tesTestSpec(1))
	usedAfterFirst := s.adm.usedCost()

	// Cap rejection: 429 with Retry-After, reason-labeled counter, and no
	// residue in the registry or the budget.
	resp := postJSON(t, ts.URL+"/v1/streams", tesTestSpec(2))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	if got := s.adm.usedCost(); got != usedAfterFirst {
		t.Fatalf("used cost %v after rejection, want %v", got, usedAfterFirst)
	}
	if got := s.reg.count.Load(); got != 1 {
		t.Fatalf("registry has %d sessions after rejection, want 1", got)
	}

	// Trunk rejection takes the same path.
	paper := modelspec.Paper()
	resp = postJSON(t, ts.URL+"/v1/trunks", &modelspec.TrunkSpec{
		Seed: 3,
		Components: []modelspec.TrunkComponent{
			{Count: 2, Spec: modelspec.Spec{ACF: paper.ACF, Marginal: paper.Marginal}},
		},
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap trunk create: %d, want 429", resp.StatusCode)
	}
	if got := s.adm.usedCost(); got != usedAfterFirst {
		t.Fatalf("used cost %v after trunk rejection, want %v", got, usedAfterFirst)
	}

	// A failed open (spec that validates at the HTTP layer but dies in the
	// engine) releases its reservation too: deleting the survivor must take
	// the budget back to zero exactly.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/streams/"+kept.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if got := s.adm.usedCost(); got != 0 {
		t.Fatalf("used cost %v after deleting every session, want 0", got)
	}
	// And with the slot free, creation works again — nothing was poisoned.
	createStream(t, ts.URL, tesTestSpec(4))
}

// TestAdmissionBudgetShedsTrunks checks cost-aware shedding end to end: a
// budget sized for cheap streams rejects an expensive superposition with
// 429/budget while TES streams keep landing.
func TestAdmissionBudgetShedsTrunks(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxSessions: 64, MaxCost: 20})

	paper := modelspec.Paper()
	bigTrunk := &modelspec.TrunkSpec{
		Seed: 5,
		Components: []modelspec.TrunkComponent{
			{Count: 8, Spec: modelspec.Spec{ACF: paper.ACF, Marginal: paper.Marginal}},
		},
	}
	if bigTrunk.Cost() <= 20 {
		t.Fatalf("test trunk cost %v not over the %v budget", bigTrunk.Cost(), 20.0)
	}
	resp := postJSON(t, ts.URL+"/v1/trunks", bigTrunk)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget trunk: %d, want 429", resp.StatusCode)
	}
	// Cheap streams still land after the expensive rejection.
	for i := 0; i < 5; i++ {
		createStream(t, ts.URL, tesTestSpec(uint64(10+i)))
	}
	if got := s.reg.count.Load(); got != 5 {
		t.Fatalf("registry has %d sessions, want 5", got)
	}
}
