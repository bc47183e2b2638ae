package modelspec

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"vbrsim/internal/dist"
)

// FuzzModelSpecDecode hardens the spec wire format: Parse must never panic
// on malformed input (it is fed straight from HTTP request bodies by
// trafficd), and any input it accepts must survive a marshal/re-parse
// round trip — the contract that lets servers echo specs back to clients.
func FuzzModelSpecDecode(f *testing.F) {
	// Seed corpus: the paper preset, a minimal spec, and assorted near-miss
	// malformed payloads.
	paper, err := json.Marshal(Paper())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(paper)
	f.Add([]byte(`{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10}}`))
	f.Add([]byte(`{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4}}`))
	f.Add([]byte(`{"acf":{"weights":[],"rates":[],"l":0,"beta":0,"knee":0}}`))
	f.Add([]byte(`{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10},"marginal":{"kind":"empirical","sample":[1,2,3]}}`))
	f.Add([]byte(`{"acf":{"weights":[1e999],"rates":[0.1]}}`))
	f.Add([]byte(`{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10},"engine":"block"}`))
	f.Add([]byte(`{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10},"engine":"truncated"}`))
	f.Add([]byte(`{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10},"engine":"warp"}`))
	f.Add([]byte(`{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10},"engine":""}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	// ACF families beyond the composite knee.
	f.Add([]byte(`{"acf":{"kind":"farima","d":0.4}}`))
	f.Add([]byte(`{"acf":{"kind":"farima","d":0.3,"phi":0.5,"theta":-0.2},"engine":"block"}`))
	f.Add([]byte(`{"acf":{"kind":"fgn","hurst":0.9}}`))
	f.Add([]byte(`{"acf":{"kind":"fgn","hurst":1.5}}`))
	f.Add([]byte(`{"acf":{"kind":"farima","d":0.4,"weights":[1],"rates":[0.1]}}`))
	// Plan-free engines: the §3.3 GOP simulator and TES.
	f.Add([]byte(`{"engine":"gop","gop":{}}`))
	f.Add([]byte(`{"engine":"gop","gop":{"pattern":"IBBP","scene_alpha":1.4}}`))
	f.Add([]byte(`{"engine":"gop","gop":{"pattern":"IXP"}}`))
	f.Add([]byte(`{"engine":"gop"}`))
	f.Add([]byte(`{"engine":"tes","tes":{"alpha":0.3},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4}}`))
	f.Add([]byte(`{"engine":"tes","tes":{"alpha":0.3,"zeta":0.7,"minus":true},"marginal":{"kind":"gamma","shape":2,"scale":1300}}`))
	f.Add([]byte(`{"engine":"tes","tes":{"alpha":0.3}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(bytes.NewReader(data)) // must not panic, whatever the bytes
		if err != nil {
			return
		}
		// Accepted specs must be internally consistent — the plan-free
		// engines must open (cheap: no plan build), the Gaussian-background
		// engines must materialize a Source — and the JSON round trip must
		// re-parse to an equally valid spec.
		if spec.Engine == EngineGOP || spec.Engine == EngineTES {
			st, err := spec.OpenCtx(context.Background(), 0)
			if err != nil {
				t.Fatalf("Parse accepted a spec OpenCtx rejects: %v\ninput: %q", err, data)
			}
			st.Close()
		} else if _, _, err := spec.Source(); err != nil {
			t.Fatalf("Parse accepted a spec Source rejects: %v\ninput: %q", err, data)
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := Parse(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("marshal of an accepted spec does not re-parse: %v\nwire: %s", err, wire)
		}
		wire2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("marshal is not stable:\nfirst:  %s\nsecond: %s", wire, wire2)
		}
	})
}

// FuzzTrunkSpecDecode hardens the trunk wire format the same way:
// ParseTrunk must never panic, and accepted trunks must marshal stably
// through a re-parse.
func FuzzTrunkSpecDecode(f *testing.F) {
	f.Add([]byte(`{"components":[{"spec":{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10}}}]}`))
	f.Add([]byte(`{"seed":7,"components":[` +
		`{"count":4,"spec":{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10},"engine":"block"}},` +
		`{"weight":0.5,"spec":{"acf":{"kind":"farima","d":0.4}}},` +
		`{"spec":{"engine":"gop","gop":{}}},` +
		`{"spec":{"engine":"tes","tes":{"alpha":0.3}}}` +
		`],"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4}}`))
	f.Add([]byte(`{"components":[]}`))
	f.Add([]byte(`{"components":[{"count":-1,"spec":{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10}}}]}`))
	f.Add([]byte(`{"components":[{"spec":{"seed":9,"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10}}}]}`))
	f.Add([]byte(`{"components":[{"count":100000,"spec":{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10}}}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseTrunk(bytes.NewReader(data)) // must not panic, whatever the bytes
		if err != nil {
			return
		}
		if spec.NumSources() < 1 {
			t.Fatalf("ParseTrunk accepted a trunk with %d sources\ninput: %q", spec.NumSources(), data)
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted trunk does not marshal: %v", err)
		}
		back, err := ParseTrunk(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("marshal of an accepted trunk does not re-parse: %v\nwire: %s", err, wire)
		}
		wire2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("marshal is not stable:\nfirst:  %s\nsecond: %s", wire, wire2)
		}
	})
}

// FuzzQuantileRoundTrip locks the idempotence of the quantile compaction
// used when an empirical marginal is exported to the wire: compacting,
// rebuilding the Empirical from the wire sample, and compacting again must
// reproduce the identical float64s. Without this property a spec would
// drift every time it is re-exported.
func FuzzQuantileRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(3))
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88}, uint16(2000))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint16(1))

	f.Fuzz(func(t *testing.T, raw []byte, tile uint16) {
		// Decode the fuzz bytes into float64s; skip junk that is not a
		// usable sample.
		var vals []float64
		for len(raw) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[:8]))
			raw = raw[8:]
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return
		}
		// Tile deterministically so the sample can exceed SampleCap and
		// exercise the quantile-grid path, not just the identity path.
		reps := int(tile)%4 + 1
		n := len(vals) * reps * (SampleCap/(len(vals)*reps) + 1)
		if n > 3*SampleCap {
			n = 3 * SampleCap
		}
		if int(tile)%2 == 0 {
			n = len(vals) // small-sample identity path
		}
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = vals[i%len(vals)] + float64(i/len(vals))
		}

		e, err := dist.NewEmpirical(sample)
		if err != nil {
			t.Fatalf("NewEmpirical rejected a finite sample: %v", err)
		}
		once := CompactSample(e)
		if len(once) > SampleCap {
			t.Fatalf("compacted sample has %d > cap %d values", len(once), SampleCap)
		}
		e2, err := dist.NewEmpirical(once)
		if err != nil {
			t.Fatalf("compacted sample does not rebuild: %v", err)
		}
		twice := CompactSample(e2)
		if len(twice) != len(once) {
			t.Fatalf("second compaction changed length: %d -> %d", len(once), len(twice))
		}
		for i := range once {
			if math.Float64bits(once[i]) != math.Float64bits(twice[i]) {
				t.Fatalf("compaction is not idempotent at %d: %v -> %v", i, once[i], twice[i])
			}
		}
	})
}
