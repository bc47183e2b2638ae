package modelspec

import (
	"context"
	"runtime"
	"testing"

	"vbrsim/internal/hosking"
	"vbrsim/internal/obs"
)

// TestTruncatedOpenRetainedBytes gates what opening one paper-spec session
// keeps alive from a cold plan cache: the exact HeapAlloc delta across the
// open, each side taken after two GCs. The truncated engine reads only the
// O(p^2) prefix of its plan (about 0.5 MiB at p = 361), and the cache holds
// that truncation, not the 64 MiB plan of 4096 steps it came from. The
// block engine adds its Davies-Harte engine, LUT and arena. A TES session
// builds no plan: it keeps its generator and marginal, a few hundred bytes
// (its statmon monitor is the server's, gated by
// server.TestSessionRetainedBytes). The bounds hold on any host: they count
// bytes, not time.
func TestTruncatedOpenRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap deltas")
	}
	ctx := context.Background()
	rows := []struct {
		spec  Spec
		limit int64
	}{
		{Paper(), 1 << 20},
		{blockSpec(1), 4 << 20},
		{Spec{Seed: 1, Engine: EngineTES, TES: &TESSpec{Alpha: 0.3},
			Marginal: &MarginalSpec{Kind: "lognormal", Mu: 9.6, Sigma: 0.4}}, 1 << 10},
	}
	for _, row := range rows {
		name := engineFor(row.spec.Engine).name
		hosking.Shared.Purge()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		st, err := row.spec.OpenCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(st)
		st.Close()
		retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if retained >= row.limit {
			t.Errorf("one cold %s open retains %d B, want < %d B", name, retained, row.limit)
		}
		t.Logf("one cold %s open retains %d B", name, retained)
	}
}

// TestPlanCacheBytesGauge reads vbrsim_plan_cache_bytes around one paper
// truncated session: the truncation's prefix plus the 4096-lag table that
// verifies hits (about 0.5 MiB + 32 KiB), and 0 once purged.
func TestPlanCacheBytesGauge(t *testing.T) {
	reg := obs.NewRegistry()
	hosking.Shared.RegisterMetrics(reg)
	gauge := func() float64 { return reg.Snapshot()["vbrsim_plan_cache_bytes"].(float64) }
	hosking.Shared.Purge()
	if g := gauge(); g != 0 {
		t.Fatalf("purged cache gauge reads %v B", g)
	}
	st := openT(t, Paper())
	g := gauge()
	if g < 512<<10 || g >= 1<<20 {
		t.Fatalf("one paper truncated session: gauge reads %v B, want in [512 KiB, 1 MiB)", g)
	}
	t.Logf("one paper truncated session (AR(%d)): cache retains %v B", st.g.trunc.Order(), g)
	hosking.Shared.Purge()
	if g := gauge(); g != 0 {
		t.Fatalf("after Purge the gauge reads %v B, want 0", g)
	}
}

// TestColdOpenAllocatedBytes gates what opening one paper-spec session
// allocates from a cold plan cache, garbage included: the exact TotalAlloc
// delta across the open, with the FFT tables warmed by an earlier open. The
// truncation is built by an order scan over two rolling rows plus an
// O(p^2) rebuild of the prefix it keeps, so no open allocates the 64 MiB
// triangle of the 4096-step plan; a burst of cold opens stays near the
// admission budget instead of each spending 64 MiB outside it. The bounds
// hold on any host: they count bytes, not time.
func TestColdOpenAllocatedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts allocation counts")
	}
	ctx := context.Background()
	for _, row := range []struct {
		spec  Spec
		limit uint64
	}{
		{Paper(), 2 << 20},
		{blockSpec(1), 4 << 20},
	} {
		name := engineFor(row.spec.Engine).name
		warm, err := row.spec.OpenCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		warm.Close()
		hosking.Shared.Purge()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st, err := row.spec.OpenCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		st.Close()
		allocated := after.TotalAlloc - before.TotalAlloc
		if allocated >= row.limit {
			t.Errorf("one cold %s open allocates %d B, want < %d B", name, allocated, row.limit)
		}
		t.Logf("one cold %s open allocates %d B", name, allocated)
	}
}
