package modelspec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"vbrsim/internal/hosking"
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
	if a.blk.Engine() != b.blk.Engine() {
		t.Error("block engine rebuilt")
	}
	if a.g.lut != b.g.lut {
		t.Error("LUT rebuilt")
	}
	if a.blk == b.blk {
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
	if c.gen == d.gen {
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
		before.blk.Engine() == after.blk.Engine() || before.g.lut == after.g.lut {
		t.Fatal("an open after Purge reused pre-purge state")
	}
	x, y := make([]float64, 512), make([]float64, 512)
	before.Fill(x)
	after.Fill(y)
	bitsEqual(t, "pre-purge vs post-purge stream", x, y, 0)
}

// TestSharedStateConcurrentOpens opens, seeks and fills one spec from 32
// goroutines at once, starting from a cold plan cache so the first builds
// race too. Every stream must match serial Spec.Frames byte for byte. Run
// it under -race: the shared state is read by every stream at once.
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
			if err := st.SeekCtx(ctx, froms[i]); err != nil {
				errs[i] = err
				return
			}
			got[i] = make([]float64, n)
			st.Fill(got[i])
			st.ImpliedACF(129)
		}(i)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := specs[i].Frames(ctx, froms[i], n, 0)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, fmt.Sprintf("stream %d (%s engine)", i, specs[i].Engine), got[i], want, froms[i])
	}
}

// TestWarmOpenAllocBound bounds what a warm block open allocates: the
// per-seed arena (~180 KiB for the paper spec) plus the plan-cache lookup's
// evaluated ACF table (32 KiB). Rebuilding the shared state would add the
// 612 KB Davies-Harte engine and the LUT on every open.
func TestWarmOpenAllocBound(t *testing.T) {
	spec := blockSpec(1)
	openT(t, spec) // warm: plan, truncation, shared state
	const opens = 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < opens; i++ {
		spec.Seed = uint64(i + 2)
		st, err := spec.OpenCtx(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	runtime.ReadMemStats(&m1)
	perOpen := float64(m1.TotalAlloc-m0.TotalAlloc) / opens
	const bound = 320 << 10
	if perOpen > bound {
		t.Fatalf("warm block open allocates %.0f KiB, want <= %d KiB", perOpen/1024, bound>>10)
	}
	t.Logf("warm block open: %.0f KiB", perOpen/1024)
}
