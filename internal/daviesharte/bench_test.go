package daviesharte

import (
	"sync"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/par"
	"vbrsim/internal/rng"
)

// Path-engine ablations: the batched zero-alloc engine (PathReference ->
// PathInto -> PathRealInto/Batch), plus the telemetry off/on pair that
// prices the instrumented par fan-out on a real hot path.

// benchModel is the fixture background process: FGN with H = 0.8, a
// long-range dependent model in the paper's regime.
var benchModel = acf.FGN{H: 0.8}

const (
	dhLen     = 4096 // path length (circulant size 8192)
	dhBatchSz = 8    // paths per Batch op
)

var (
	dhOnce sync.Once
	dhPlan *Plan
	dhErr  error
)

func getDHPlan(b *testing.B) *Plan {
	dhOnce.Do(func() { dhPlan, dhErr = NewPlan(benchModel, dhLen, Options{AllowApprox: true}) })
	if dhErr != nil {
		b.Fatal(dhErr)
	}
	return dhPlan
}

// BenchmarkDHPathReference is the seed Davies-Harte implementation:
// per-call spectrum and output allocations, on-the-fly-twiddle reference
// FFT.
func BenchmarkDHPathReference(b *testing.B) {
	plan := getDHPlan(b)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.PathReference(r)
	}
}

// BenchmarkDHPathInto is the zero-alloc bit-identical path: reused scratch,
// cached-twiddle full-length complex FFT.
func BenchmarkDHPathInto(b *testing.B) {
	plan := getDHPlan(b)
	r := rng.New(1)
	var s Scratch
	out := make([]float64, dhLen)
	plan.PathInto(out, &s, r) // warm: scratch grows once, then 0 B/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.PathInto(out, &s, r)
	}
}

// BenchmarkDHPathRealInto synthesizes through the packed half-spectrum FFT
// (one complex transform of length m/2 instead of m).
func BenchmarkDHPathRealInto(b *testing.B) {
	plan := getDHPlan(b)
	r := rng.New(1)
	var s Scratch
	out := make([]float64, dhLen)
	plan.PathRealInto(out, &s, r) // warm: scratch grows once, then 0 B/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.PathRealInto(out, &s, r)
	}
}

// BenchmarkDHBatch generates dhBatchSz seeded paths per op through the
// batch engine with one reused scratch arena (the zero-alloc inline
// layout).
func BenchmarkDHBatch(b *testing.B) {
	plan := getDHPlan(b)
	dst, seeds, scratch := batchFixture()
	if err := plan.Batch(dst, seeds, scratch); err != nil { // warm the arena
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Batch(dst, seeds, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDHPathTelemetryOff generates a batch with the par observer
// uninstalled (the zero-alloc inline fan-out path).
func BenchmarkDHPathTelemetryOff(b *testing.B) {
	benchDHBatchObserved(b)
}

// BenchmarkDHPathTelemetryOn generates the identical batch with a
// worker-pool observer installed, forcing the instrumented fan-out
// (per-worker busy clocks, in-flight peak tracking). Output stays
// bit-identical; only the bookkeeping differs.
func BenchmarkDHPathTelemetryOn(b *testing.B) {
	par.SetObserver(func(par.RunStats) {})
	defer par.SetObserver(nil)
	benchDHBatchObserved(b)
}

func benchDHBatchObserved(b *testing.B) {
	plan := getDHPlan(b)
	dst, seeds, scratch := batchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Batch(dst, seeds, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// batchFixture is dhBatchSz destination rows of dhLen frames, seeds 1..8,
// and one shared scratch arena.
func batchFixture() ([][]float64, []uint64, []*Scratch) {
	dst := make([][]float64, dhBatchSz)
	seeds := make([]uint64, dhBatchSz)
	for i := range dst {
		dst[i] = make([]float64, dhLen)
		seeds[i] = uint64(i + 1)
	}
	return dst, seeds, []*Scratch{new(Scratch)}
}

// TestDHSteadyStateZeroAlloc is the alloc gate behind BenchmarkDHPathInto,
// BenchmarkDHPathRealInto and BenchmarkDHBatch: on their fixture (n=4096,
// an 8-row Batch sharing one scratch), after one warm call grows the
// scratch arena the steady-state synthesis loops must not allocate at all.
// The benchmarks warm before ResetTimer for the same reason, so their
// allocs/op columns report the steady state this test enforces.
func TestDHSteadyStateZeroAlloc(t *testing.T) {
	plan, err := NewPlan(benchModel, dhLen, Options{AllowApprox: true})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("PathInto", func(t *testing.T) {
		r := rng.New(1)
		var s Scratch
		out := make([]float64, dhLen)
		plan.PathInto(out, &s, r)
		if allocs := testing.AllocsPerRun(10, func() {
			plan.PathInto(out, &s, r)
		}); allocs != 0 {
			t.Fatalf("PathInto steady state allocates %v/op, want 0", allocs)
		}
	})

	t.Run("PathRealInto", func(t *testing.T) {
		r := rng.New(1)
		var s Scratch
		out := make([]float64, dhLen)
		plan.PathRealInto(out, &s, r)
		if allocs := testing.AllocsPerRun(10, func() {
			plan.PathRealInto(out, &s, r)
		}); allocs != 0 {
			t.Fatalf("PathRealInto steady state allocates %v/op, want 0", allocs)
		}
	})

	t.Run("Batch", func(t *testing.T) {
		dst := make([][]float64, dhBatchSz)
		seeds := make([]uint64, dhBatchSz)
		for i := range dst {
			dst[i] = make([]float64, dhLen)
			seeds[i] = uint64(i + 1)
		}
		scratch := []*Scratch{new(Scratch)}
		if err := plan.Batch(dst, seeds, scratch); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := plan.Batch(dst, seeds, scratch); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("Batch steady state (single worker) allocates %v/op, want 0", allocs)
		}
	})
}
