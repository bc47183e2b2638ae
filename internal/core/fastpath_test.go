package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/dist"
	"vbrsim/internal/hosking"
	"vbrsim/internal/rng"
	"vbrsim/internal/trace"
	"vbrsim/internal/transform"
)

func TestArrivalPathIntoMatchesArrivalPath(t *testing.T) {
	tr := testTrace(t, 1<<16)
	m, err := Fit(tr.ByType(trace.FrameI), FitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Plan(200)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := TruncatedPlanForCtx(context.Background(), m.Background, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []ArrivalSource{
		{Plan: plan, Transform: m.Transform},
		{Plan: plan, Fast: fast, Transform: m.Transform},
	} {
		alloc := src.ArrivalPath(rng.New(17), 200)
		buf := make([]float64, 200)
		for i := range buf {
			buf[i] = -1e9 // stale content must be overwritten
		}
		src.ArrivalPathInto(rng.New(17), buf)
		for i := range alloc {
			if alloc[i] != buf[i] {
				t.Fatalf("fast=%v slot %d: ArrivalPath %v vs ArrivalPathInto %v",
					src.Fast != nil, i, alloc[i], buf[i])
			}
		}
	}
}

func TestTruncatedPlanGeneratesBeyondPlanLength(t *testing.T) {
	tr := testTrace(t, 1<<16)
	m, err := Fit(tr.ByType(trace.FrameI), FitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := TruncatedPlanForCtx(context.Background(), m.Background, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Order() <= 0 {
		t.Fatalf("order = %d", fast.Order())
	}
	src := ArrivalSource{Fast: fast, Transform: m.Transform}
	// Horizon far beyond the exact plan's length must work on the fast path.
	path := src.ArrivalPath(newTestRand(), 5000)
	if len(path) != 5000 {
		t.Fatalf("path len %d", len(path))
	}
	for _, v := range path {
		if v < 0 {
			t.Fatal("negative arrival")
		}
	}
}

func TestGenerateBackendHoskingFast(t *testing.T) {
	tr := testTrace(t, 1<<16)
	m, err := Fit(tr.ByType(trace.FrameI), FitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := m.Generate(6000, 9, BackendHoskingFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 6000 {
		t.Fatalf("len = %d", len(sizes))
	}
	for _, v := range sizes {
		if v < 0 {
			t.Fatal("negative frame size")
		}
	}
}

// TestGenerateFastRetainsNoPlan checks BackendHoskingFast takes its
// truncation from the shared cache and builds no exact plan: a cold
// 8192-frame generation leaves the cache holding the O(p^2) truncation
// prefix, not the 64 MiB plan of 4096 steps it is derived from.
func TestGenerateFastRetainsNoPlan(t *testing.T) {
	tr := testTrace(t, 1<<16)
	m, err := Fit(tr.ByType(trace.FrameI), FitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hosking.Shared.Purge()
	if _, err := m.Generate(8192, 9, BackendHoskingFast); err != nil {
		t.Fatal(err)
	}
	if got := hosking.Shared.Bytes(); got >= 2<<20 {
		t.Fatalf("plan cache retains %d B after a fast generation, want < 2 MiB", got)
	}
}

// TestGenerateFastRefusesLongExactFallback checks BackendHoskingFast falls
// back to an exact plan only up to autoHoskingLimit. The GOP-stretched paper
// background never truncates within the 4096-lag plan, so at 65536 frames
// the fallback would build an exact plan of 16 GiB; instead generation must
// fail fast with an error that wraps hosking.ErrNoTruncation and names the
// daviesharte backend, having allocated little.
func TestGenerateFastRefusesLongExactFallback(t *testing.T) {
	base, err := acf.PaperComposite().Continuous().EnsureConvex()
	if err != nil {
		t.Fatal(err)
	}
	model := acf.Scaled{Base: base, Factor: 12}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err = generateBackground(model, 1<<16, 9, BackendHoskingFast)
	runtime.ReadMemStats(&ms)
	if !errors.Is(err, hosking.ErrNoTruncation) {
		t.Fatalf("err = %v, want one wrapping hosking.ErrNoTruncation", err)
	}
	if !strings.Contains(err.Error(), "daviesharte") {
		t.Fatalf("error %q does not name the daviesharte backend", err)
	}
	if got := ms.TotalAlloc - before; got >= 64<<20 {
		t.Fatalf("refused generation allocated %d B, want < 64 MiB", got)
	}
}

// TestArrivalSourceLUT checks the table-based transform fast path: with the
// same seed, a LUT-equipped source must reproduce the exact source's
// arrivals within the table's measured error bound.
func TestArrivalSourceLUT(t *testing.T) {
	plan, err := hosking.NewPlan(acf.FGN{H: 0.9}, 400)
	if err != nil {
		t.Fatal(err)
	}
	htr := transform.New(dist.Lognormal{Mu: 9.6, Sigma: 0.4})
	lut, err := htr.NewDefaultLUT()
	if err != nil {
		t.Fatal(err)
	}
	exact := ArrivalSource{Plan: plan, Transform: htr}
	tabled := ArrivalSource{Plan: plan, Transform: htr, LUT: lut}
	a := exact.ArrivalPath(rng.New(21), 400)
	b := tabled.ArrivalPath(rng.New(21), 400)
	tol := lut.MaxError() * 1.01
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > tol {
			t.Fatalf("slot %d: |exact-LUT| = %g exceeds bound %g", i, d, tol)
		}
	}
}
