package daviesharte

import (
	"math"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/rng"
)

// TestPathIntoBitIdentical pins the zero-alloc path (precomputed scales +
// tabled FFT) to the reference implementation bit-for-bit; the conformance
// golden traces route through Path, so this is the contract that keeps them
// unchanged.
func TestPathIntoBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 16, 100, 1024, 4096} {
		p, err := NewPlan(acf.FGN{H: 0.8}, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := p.PathReference(rng.New(99))
		got := make([]float64, n)
		var s Scratch
		p.PathInto(got, &s, rng.New(99))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d frame %d: PathInto %v != reference %v (not bit-identical)", n, i, got[i], want[i])
			}
		}
		viaPath := p.Path(rng.New(99))
		for i := range want {
			if math.Float64bits(viaPath[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d frame %d: Path %v != reference %v (not bit-identical)", n, i, viaPath[i], want[i])
			}
		}
	}
}

// TestPathRealIntoMatchesPath checks the half-spectrum synthesis agrees with
// the full complex path to floating-point accuracy (same draws, different
// transform rounding).
func TestPathRealIntoMatchesPath(t *testing.T) {
	for _, n := range []int{1, 2, 16, 100, 1024, 4096} {
		p, err := NewPlan(acf.FGN{H: 0.8}, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := p.Path(rng.New(1234))
		got := make([]float64, n)
		var s Scratch
		p.PathRealInto(got, &s, rng.New(1234))
		var worst float64
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > worst {
				worst = d
			}
		}
		if worst > 1e-9 {
			t.Fatalf("n=%d: worst |PathRealInto-Path| = %g", n, worst)
		}
	}
}

// TestPathEngineZeroAlloc is the allocation regression gate for the hot
// paths: PathInto and PathRealInto must not allocate at steady state.
func TestPathEngineZeroAlloc(t *testing.T) {
	const n = 1024
	p, err := NewPlan(acf.FGN{H: 0.9}, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, n)
	var s Scratch
	r := rng.New(5)
	p.PathInto(dst, &s, r) // warm scratch and FFT tables
	if a := testing.AllocsPerRun(10, func() { p.PathInto(dst, &s, r) }); a != 0 {
		t.Errorf("PathInto allocates %v/op at steady state, want 0", a)
	}
	p.PathRealInto(dst, &s, r)
	if a := testing.AllocsPerRun(10, func() { p.PathRealInto(dst, &s, r) }); a != 0 {
		t.Errorf("PathRealInto allocates %v/op at steady state, want 0", a)
	}
}

// TestScratchSizedForRealPath pins what a Scratch that only serves
// PathRealInto holds: the half-spectrum (m/2+1 bins) and the half-length
// synthesis scratch (m/2), not a full m-bin spectrum it never reads. A
// later PathInto grows the spectrum to m and leaves the paths unchanged.
func TestScratchSizedForRealPath(t *testing.T) {
	const n = 1024
	p, err := NewPlan(acf.FGN{H: 0.9}, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := p.m / 2
	var s Scratch
	got := make([]float64, n)
	p.PathRealInto(got, &s, rng.New(9))
	if cap(s.a) != h+1 || cap(s.z) != h {
		t.Fatalf("PathRealInto-only scratch: cap(a) = %d, cap(z) = %d, want %d and %d", cap(s.a), cap(s.z), h+1, h)
	}
	want := make([]float64, n)
	p.PathRealInto(want, nil, rng.New(9))
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: reused scratch %v, fresh scratch %v", i, got[i], want[i])
		}
	}
	p.PathInto(got, &s, rng.New(9))
	if cap(s.a) != p.m || cap(s.z) != h {
		t.Fatalf("after PathInto: cap(a) = %d, cap(z) = %d, want %d and %d", cap(s.a), cap(s.z), p.m, h)
	}
	p.PathRealInto(got, &s, rng.New(9))
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d after PathInto: %v, want %v", i, got[i], want[i])
		}
	}
}
