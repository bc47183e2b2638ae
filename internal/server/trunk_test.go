package server

import (
	"io"
	"net/http"
	"testing"

	"vbrsim/internal/modelspec"
)

// testTrunkSpec is a small heterogeneous trunk: two block-engine replicas
// of the paper model, one GOP simulator, one TES source.
func testTrunkSpec(seed uint64) modelspec.TrunkSpec {
	paper := modelspec.Paper()
	return modelspec.TrunkSpec{
		Seed: seed,
		Components: []modelspec.TrunkComponent{
			{Count: 2, Spec: modelspec.Spec{ACF: paper.ACF, Engine: modelspec.EngineBlock}},
			{Spec: modelspec.Spec{Engine: modelspec.EngineGOP, GOP: &modelspec.GOPSpec{}}},
			{Weight: 0.5, Spec: modelspec.Spec{Engine: modelspec.EngineTES, TES: &modelspec.TESSpec{Alpha: 0.3}}},
		},
		Marginal: &modelspec.MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4},
	}
}

func createTrunk(t *testing.T, base string, spec modelspec.TrunkSpec) SessionInfo {
	t.Helper()
	resp := postJSON(t, base+"/v1/trunks", &spec)
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("create trunk: %d %s", resp.StatusCode, body)
	}
	return decodeJSON[SessionInfo](t, resp)
}

// TestTrunkSessionDeleteReleasesSources checks DELETE closes the trunk and
// the session disappears from list/get.
func TestTrunkSessionDeleteReleasesSources(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	info := createTrunk(t, ts.URL, testTrunkSpec(12))
	if v := s.metrics.trunkSessions.Value(); v != 1 {
		t.Fatalf("trunk sessions gauge = %v, want 1", v)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/streams/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if v := s.metrics.trunkSessions.Value(); v != 0 {
		t.Fatalf("trunk sessions gauge after delete = %v, want 0", v)
	}
	getResp, err := http.Get(ts.URL + "/v1/streams/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", getResp.StatusCode)
	}
}

// TestTrunkCreateRejections exercises the trunk-specific error paths:
// unknown component backend, zero sources, pinned component seed, unknown
// top-level field.
func TestTrunkCreateRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	good := testTrunkSpec(1)

	badEngine := good
	badEngine.Components = []modelspec.TrunkComponent{
		{Spec: modelspec.Spec{Engine: "warp-drive", ACF: good.Components[0].Spec.ACF}},
	}
	zeroSources := good
	zeroSources.Components = nil
	pinnedSeed := testTrunkSpec(1)
	pinnedSeed.Components[0].Spec.Seed = 42

	for _, tc := range []struct {
		name string
		body any
	}{
		{"unknown component backend", badEngine},
		{"zero sources", zeroSources},
		{"pinned component seed", pinnedSeed},
		{"unknown field", map[string]any{"components": []any{}, "bogus": 1}},
	} {
		resp := postJSON(t, ts.URL+"/v1/trunks", tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}
