package modelspec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"vbrsim/internal/hosking"
	"vbrsim/internal/streamblock"
)

// openT opens spec or fails the test.
func openT(t *testing.T, spec Spec) *Stream {
	t.Helper()
	st, err := spec.OpenCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// arena returns a block-engine stream's per-seed arena.
func arena(st *Stream) *streamblock.Stream { return st.src.(*blockSource).blk }

// TestSharedStateReusedAcrossOpens checks two sessions of one spec share
// every piece of per-spec state: the truncation, the block engine, the LUT
// and the statmon reference. Only the per-seed arena is their own.
func TestSharedStateReusedAcrossOpens(t *testing.T) {
	a, b := openT(t, blockSpec(1)), openT(t, blockSpec(2))
	if a.g != b.g {
		t.Fatal("two opens of one spec built separate shared state")
	}
	if a.g.trunc != b.g.trunc {
		t.Error("truncation rebuilt")
	}
	if arena(a).Engine() != arena(b).Engine() {
		t.Error("block engine rebuilt")
	}
	if a.g.lut != b.g.lut {
		t.Error("LUT rebuilt")
	}
	if arena(a) == arena(b) {
		t.Error("two sessions share one arena")
	}
	ra, rb := a.ImpliedACF(257), b.ImpliedACF(257)
	if &ra[0] != &rb[0] {
		t.Error("statmon reference recomputed")
	}

	// The truncated engine shares its truncation and transform the same way.
	tspec := Paper()
	tspec.Seed = 3
	c, d := openT(t, tspec), openT(t, tspec)
	if c.g != d.g || c.g.trunc != a.g.trunc {
		t.Error("truncated-engine opens do not share the spec's truncation")
	}
	if c.src.(*truncSource).gen == d.src.(*truncSource).gen {
		t.Error("two sessions share one generator")
	}
}

// TestSharedStatePerMarginal checks a spec that differs only in its
// marginal shares the truncation but gets its own transform and LUT.
func TestSharedStatePerMarginal(t *testing.T) {
	a := openT(t, blockSpec(1))
	other := blockSpec(1)
	other.Marginal = &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.5}
	b := openT(t, other)
	if a.g.trunc != b.g.trunc {
		t.Error("same ACF, different truncation")
	}
	if a.g == b.g || a.g.lut == b.g.lut {
		t.Fatal("specs with different marginals share one LUT")
	}
	if a.MeanRate() == b.MeanRate() {
		t.Error("specs with different marginals report one mean")
	}
}

// TestSharedStateReleasedOnPurge checks per-spec state lives and dies with
// its plan: after hosking.Shared.Purge the next open rebuilds everything,
// while the stream opened before the purge keeps working on its own copy.
func TestSharedStateReleasedOnPurge(t *testing.T) {
	before := openT(t, blockSpec(5))
	hosking.Shared.Purge()
	after := openT(t, blockSpec(5))
	if before.g == after.g || before.g.trunc == after.g.trunc ||
		arena(before).Engine() == arena(after).Engine() || before.g.lut == after.g.lut {
		t.Fatal("an open after Purge reused pre-purge state")
	}
	x, y := make([]float64, 512), make([]float64, 512)
	before.Fill(x)
	after.Fill(y)
	bitsEqual(t, "pre-purge vs post-purge stream", x, y, 0)
}

// TestSharedStateConcurrentOpens opens, seeks and fills one spec from 32
// goroutines at once, starting from a cold plan cache so the first builds
// race too. Every open must get the one cached truncation, and every open
// of one engine the one shared state memoized on it (Derived built once)
// and the one value in its Memo slot.
// Every stream must match serial Spec.Frames byte for byte. Run it under
// -race: the shared state is read by every stream at once.
func TestSharedStateConcurrentOpens(t *testing.T) {
	const (
		workers = 32
		n       = 512
	)
	ctx := context.Background()
	specs := make([]Spec, workers)
	froms := make([]int, workers)
	for i := range specs {
		specs[i] = blockSpec(uint64(100 + i))
		if i%2 == 1 {
			specs[i].Engine = EngineTruncated
		}
		froms[i] = (i * 7919) % 20000
	}
	hosking.Shared.Purge()
	got := make([][]float64, workers)
	shared := make([]*gaussian, workers)
	memos := make([]any, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := specs[i].OpenCtx(ctx, 0)
			if err != nil {
				errs[i] = err
				return
			}
			defer st.Close()
			shared[i] = st.g
			if err := st.SeekCtx(ctx, froms[i]); err != nil {
				errs[i] = err
				return
			}
			got[i] = make([]float64, n)
			st.Fill(got[i])
			st.ImpliedACF(129)
			memos[i] = st.Memo("ref", func() any { return new(int) })
		}(i)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if shared[i].trunc != shared[0].trunc {
			t.Fatalf("stream %d got its own truncation", i)
		}
		if shared[i] != shared[i%2] || memos[i] != memos[i%2] {
			t.Fatalf("stream %d (%s engine) got its own shared state or memo", i, specs[i].Engine)
		}
		want, err := specs[i].Frames(ctx, froms[i], n, 0)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, fmt.Sprintf("stream %d (%s engine)", i, specs[i].Engine), got[i], want, froms[i])
	}
}

// openRaceSlack is the extra bytes per warm open TestWarmOpenAllocBound
// allows under the race detector (race_test.go); 0 otherwise.
var openRaceSlack float64

// TestWarmOpenAllocBound pins what a warm open allocates, per engine, at
// its measured allocations and bytes (any growth fails): a Gaussian open
// pays only for its per-seed generator (the block arena is ~180 KiB for
// the paper spec) because the plan, truncation and shared state are
// reused; rebuilding the shared state would add the 612 KB Davies-Harte
// engine and the LUT on every block open. The plan-free engines pay for
// their generator alone. Stream itself must stay small: the stream-short
// benchmark holds 10,000 TES sessions, so every byte here is ~10 KB of live
// heap.
func TestWarmOpenAllocBound(t *testing.T) {
	if size := unsafe.Sizeof(Stream{}); size > 48 {
		t.Fatalf("Stream is %d bytes, want <= 48", size)
	}
	rows := []struct {
		spec   Spec
		allocs float64
		bytes  float64
	}{
		{Paper(), 24, 7064},
		{blockSpec(1), 28, 196744},
		{Spec{Engine: EngineGOP, GOP: &GOPSpec{}}, 3, 272},
		{Spec{Engine: EngineTES, TES: &TESSpec{Alpha: 0.3},
			Marginal: &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4}}, 5, 192},
	}
	for _, row := range rows {
		spec := row.spec
		name := engineFor(spec.Engine).name
		openT(t, spec) // warm: plan, truncation, shared state
		seed := uint64(2)
		open := func() {
			spec.Seed = seed
			seed++
			st, err := spec.OpenCtx(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
		}
		allocs := testing.AllocsPerRun(16, open)
		const opens = 16
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < opens; i++ {
			open()
		}
		runtime.ReadMemStats(&m1)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / opens
		if limit := row.bytes + openRaceSlack; allocs > row.allocs || bytes > limit {
			t.Errorf("warm %s open: %v allocs, %.0f B; want <= %v allocs, %.0f B",
				name, allocs, bytes, row.allocs, limit)
		}
		t.Logf("warm %s open: %v allocs, %.0f B", name, allocs, bytes)
	}
}

// TestStreamFillZeroAlloc pins the steady-state allocation count of the
// two Gaussian serving engines at 0: a warm Fill of streamblock.DefaultTotal
// frames (a span that crosses a block refill) must not allocate.
func TestStreamFillZeroAlloc(t *testing.T) {
	for _, spec := range []Spec{Paper(), blockSpec(3)} {
		st := openT(t, spec)
		out := make([]float64, streamblock.DefaultTotal)
		st.Fill(out) // warm arenas and FFT tables
		if a := testing.AllocsPerRun(8, func() { st.Fill(out) }); a != 0 {
			t.Errorf("warm %s Fill of %d frames allocates %v/op, want 0",
				engineFor(spec.Engine).name, len(out), a)
		}
	}
}

// TestStreamMemo checks Stream.Memo, where the server keeps each spec's
// statmon reference: the streams of one spec share one value per key,
// another key builds a value that takes the slot, an open after Purge
// builds anew (the value lives on the truncation), and an engine without
// shared state builds on every call.
func TestStreamMemo(t *testing.T) {
	builds := 0
	build := func() any { builds++; return new(int) }
	hosking.Shared.Purge()
	a, b := openT(t, Paper()), openT(t, Paper())
	v := a.Memo("k", build)
	if w := b.Memo("k", build); w != v || builds != 1 {
		t.Fatalf("two streams of one spec: %d builds, shared value %v", builds, w == v)
	}
	other := b.Memo("other", build)
	if other == v || builds != 2 {
		t.Fatalf("a new key: %d builds, new value %v", builds, other != v)
	}
	if w := a.Memo("other", build); w != other || builds != 2 {
		t.Fatalf("the new key's value is not shared: %d builds", builds)
	}
	hosking.Shared.Purge()
	if w := openT(t, Paper()).Memo("other", build); w == other || builds != 3 {
		t.Fatalf("an open after Purge reused the memoized value (%d builds)", builds)
	}
	tes := openT(t, Spec{Seed: 1, Engine: EngineTES, TES: &TESSpec{Alpha: 0.3},
		Marginal: &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4}})
	tes.Memo("k", build)
	tes.Memo("k", build)
	if builds != 5 {
		t.Fatalf("an engine without shared state: %d builds, want 5", builds)
	}
}
