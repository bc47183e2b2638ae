package daviesharte

import (
	"sync"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/rng"
)

// Path-engine ablations: the zero-alloc engine ladder (PathReference ->
// PathInto -> PathRealInto).

// benchModel is the fixture background process: FGN with H = 0.8, a
// long-range dependent model in the paper's regime.
var benchModel = acf.FGN{H: 0.8}

const dhLen = 4096 // path length (circulant size 8192)

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

// TestDHSteadyStateZeroAlloc is the alloc gate behind BenchmarkDHPathInto
// and BenchmarkDHPathRealInto: on their fixture (n=4096), after one warm
// call grows the scratch arena the steady-state synthesis loops must not
// allocate at all.
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
}
