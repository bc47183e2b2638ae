package modelspec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// blockSpec is the paper spec on the block engine at a fixed seed.
func blockSpec(seed uint64) Spec {
	spec := Paper()
	spec.Seed = seed
	spec.Engine = EngineBlock
	return spec
}

// blockRef generates the reference frame range through Spec.Frames — the
// offline reference trafficd sessions must match bit-exactly.
func blockRef(t *testing.T, seed uint64, n int) []float64 {
	t.Helper()
	spec := blockSpec(seed)
	frames, err := spec.Frames(context.Background(), 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func bitsEqual(t *testing.T, what string, got, want []float64, base int) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: frame %d differs: got %v, want %v", what, base+i, got[i], want[i])
		}
	}
}

// TestBlockEngineDeterministic locks the offline-vs-served contract for the
// block engine: two independent opens of the same spec produce bit-
// identical frames, and chunked Fill agrees with one-shot Frames.
func TestBlockEngineDeterministic(t *testing.T) {
	const n = 2048
	want := blockRef(t, 7, n)

	spec := blockSpec(7)
	st, err := spec.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := make([]float64, n)
	for off := 0; off < n; off += 160 {
		end := off + 160
		if end > n {
			end = n
		}
		st.Fill(got[off:end])
	}
	bitsEqual(t, "chunked Fill vs Frames", got, want, 0)
}

// TestBlockEngineSeekResume covers the seek-&-resume satellite matrix on
// the block stream: forward seek, backward seek, and a seek landing exactly
// on a block boundary must all be bit-identical to a fresh stream replayed
// from the seed.
func TestBlockEngineSeekResume(t *testing.T) {
	spec := blockSpec(424242)
	st, err := spec.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The serving engine's block size: DefaultTotal minus the AR order.
	blockLen := 8192 - st.Order()
	total := 2*blockLen + 256
	want := blockRef(t, 424242, total)

	ctx := context.Background()
	read := make([]float64, 128)
	for _, pos := range []int{
		0,                // restart from the top
		blockLen - 64,    // straddles the first boundary
		blockLen,         // lands exactly on a block boundary
		2 * blockLen,     // boundary again, one block ahead
		blockLen + 1,     // backward seek into the stitched region
		17,               // backward into block 0
		2*blockLen + 100, // forward again
	} {
		if err := st.SeekCtx(ctx, pos); err != nil {
			t.Fatal(err)
		}
		if got := st.Pos(); got != pos {
			t.Fatalf("SeekCtx(%d): Pos() = %d", pos, got)
		}
		n := len(read)
		if pos+n > total {
			n = total - pos
		}
		st.Fill(read[:n])
		bitsEqual(t, "seek-then-read vs fresh replay", read[:n], want[pos:pos+n], pos)
	}
}

// TestBlockEngineNextMatchesFill checks one-frame and bulk fills of the
// block engine (LUT application included) agree bit-exactly.
func TestBlockEngineNextMatchesFill(t *testing.T) {
	const n = 1024
	want := blockRef(t, 3, n)
	spec := blockSpec(3)
	st, err := spec.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var frame [1]float64
	for i := 0; i < n; i++ {
		st.Fill(frame[:])
		if v := frame[0]; math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("1-frame Fill at %d: got %v, want %v", i, v, want[i])
		}
	}
}

// TestBlockEngineDiffersFromTruncated is a tripwire for silent engine
// fallback: the two engines are different processes frame-by-frame, so a
// block spec must not produce the truncated stream.
func TestBlockEngineDiffersFromTruncated(t *testing.T) {
	const n = 256
	ctx := context.Background()
	truncSpec := Paper()
	truncSpec.Seed = 5
	truncFrames, err := truncSpec.Frames(ctx, 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	blockFrames := blockRef(t, 5, n)
	same := 0
	for i := range blockFrames {
		if blockFrames[i] == truncFrames[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("block engine emitted the truncated engine's frames")
	}
}

// TestEngineValidation locks the wire-format gate: every engine in the
// table accepts its own valid spec and rejects every other engine's config
// block; unknown engine names are rejected at Validate/Parse time with a
// message listing the table. The rows are keyed by the table, so an engine
// cannot be added without a row here.
func TestEngineValidation(t *testing.T) {
	lognormal := &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4}
	valid := map[string]Spec{
		EngineTruncated: Paper(),
		EngineBlock:     blockSpec(0),
		EngineGOP:       {Engine: EngineGOP, GOP: &GOPSpec{}},
		EngineTES:       {Engine: EngineTES, TES: &TESSpec{Alpha: 0.3}, Marginal: lognormal},
	}
	// withConfig attaches engine name's config block to spec.
	withConfig := func(spec Spec, name string) Spec {
		if v := valid[name]; v.GOP != nil {
			spec.GOP = v.GOP
		} else {
			spec.TES = v.TES
		}
		return spec
	}
	for _, e := range engines {
		spec, ok := valid[e.name]
		if !ok {
			t.Fatalf("engine %q has no test row", e.name)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("engine %q rejected its own spec: %v", e.name, err)
		}
		if e.hasConfig == nil {
			continue
		}
		for _, o := range engines {
			if o == e {
				continue
			}
			bad := withConfig(valid[o.name], e.name)
			err := bad.Validate()
			if err == nil || !strings.Contains(err.Error(), e.name+" config requires engine") {
				t.Fatalf("%s config on engine %q: err = %v", e.name, o.name, err)
			}
		}
	}
	spec := Paper()
	spec.Engine = ""
	if err := spec.Validate(); err != nil {
		t.Fatalf("default engine rejected: %v", err)
	}
	for _, bad := range []string{"blocky", "BLOCK", "ar", "exact"} {
		spec.Engine = bad
		err := spec.Validate()
		if err == nil {
			t.Fatalf("engine %q accepted", bad)
		}
		for _, e := range engines {
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", e.name)) {
				t.Fatalf("unknown-engine error %q does not list %q", err, e.name)
			}
		}
	}
	if _, err := Parse(strings.NewReader(`{"acf":{"weights":[1],"rates":[0.1],"l":1,"beta":0.2,"knee":10},"engine":"warp"}`)); err == nil {
		t.Fatal("Parse accepted an unknown engine")
	}
}
