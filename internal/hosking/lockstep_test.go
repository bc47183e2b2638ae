package hosking

import (
	"math"
	"slices"
	"sync"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/rng"
)

// lockstepTrunc is the fixture truncation: FGN H=0.8 cut at a coarse
// tolerance, a short order so the fuzzer reaches warm-up, lockstep and
// window compaction within a few hundred steps.
var lockstepTrunc = sync.OnceValues(func() (*Truncated, error) {
	plan, err := NewPlan(acf.FGN{H: 0.8}, 256)
	if err != nil {
		return nil, err
	}
	return plan.Truncate(TruncateOptions{Tol: 1e-2})
})

// checkLockstep opens two generators per lane seeded alike, advances both
// of lane i to starts[i] with Next, then fills n samples per lane with
// FillLockstep on one set and successive Next calls on the other. It
// requires the same bits and the same generator state afterwards.
func checkLockstep(t *testing.T, tr *Truncated, seed uint64, starts []int, n int) {
	t.Helper()
	got := make([]*TruncatedGenerator, len(starts))
	want := make([]*TruncatedGenerator, len(starts))
	out := make([][]float64, len(starts))
	for i, s := range starts {
		got[i] = NewTruncatedGenerator(tr, rng.New(seed+uint64(i)))
		want[i] = NewTruncatedGenerator(tr, rng.New(seed+uint64(i)))
		for range s {
			got[i].Next()
			want[i].Next()
		}
		out[i] = make([]float64, n)
	}
	FillLockstep(got, out)
	for i, w := range want {
		for k := range n {
			if x := w.Next(); math.Float64bits(out[i][k]) != math.Float64bits(x) {
				t.Fatalf("seed %d starts %v n %d: lane %d sample %d = %v, Next %v", seed, starts, n, i, k, out[i][k], x)
			}
		}
		g := got[i]
		if g.pos != w.pos || cap(g.buf) != cap(w.buf) || !slices.Equal(g.buf, w.buf) || *g.rng != *w.rng {
			t.Fatalf("seed %d starts %v n %d: lane %d state (pos %d, window %d/%d) differs from Next's (pos %d, window %d/%d) or its rng does",
				seed, starts, n, i, g.pos, len(g.buf), cap(g.buf), w.pos, len(w.buf), cap(w.buf))
		}
		// The lanes must stay in step afterwards.
		for k := range 3 {
			if a, b := g.Next(), w.Next(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d starts %v n %d: lane %d draw %d after the fill: %v vs %v", seed, starts, n, i, k, a, b)
			}
		}
	}
}

func TestFillLockstepMatchesNext(t *testing.T) {
	tr, err := lockstepTrunc()
	if err != nil {
		t.Fatal(err)
	}
	p := tr.Order()
	full := cap(NewTruncatedGenerator(tr, rng.New(1)).buf) // first compaction at pos == full
	cases := [][]int{
		{},
		{0},
		{p, p, p, p},
		{0, p - 1, p, p + 1},
		{full - 1, full, full + 1, 3 * full},
		{p, full - 2, 2*full - p, 5},
		{p, p + 1, p + 2, p + 3, p + 4, p + 5, p + 6, p + 7, 0},
	}
	for _, starts := range cases {
		for _, n := range []int{0, 1, 2, p, full, 3 * p} {
			checkLockstep(t, tr, 42, starts, n)
		}
	}
}

func TestFillLockstepRejectsMixedTruncations(t *testing.T) {
	tr, err := lockstepTrunc()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(acf.FGN{H: 0.7}, 256)
	if err != nil {
		t.Fatal(err)
	}
	other, err := plan.Truncate(TruncateOptions{Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FillLockstep over two truncations did not panic")
		}
	}()
	gens := []*TruncatedGenerator{NewTruncatedGenerator(tr, rng.New(1)), NewTruncatedGenerator(other, rng.New(2))}
	FillLockstep(gens, [][]float64{make([]float64, 4), make([]float64, 4)})
}

// FuzzLockstepVsNext drives FillLockstep with 1-9 lanes at independent
// start positions (spread over warm-up, the order and several window
// compactions) and n from 0 to 3·order, against successive Next calls.
func FuzzLockstepVsNext(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint64(0), uint16(0))
	f.Add(uint64(7), uint8(3), uint64(0x0123456789abcdef), uint16(100))
	f.Add(uint64(1<<63), uint8(8), uint64(1<<40-1), uint16(999))
	f.Fuzz(func(t *testing.T, seed uint64, lanes uint8, startBits uint64, n uint16) {
		tr, err := lockstepTrunc()
		if err != nil {
			t.Fatal(err)
		}
		p := tr.Order()
		full := cap(NewTruncatedGenerator(tr, rng.New(1)).buf)
		starts := make([]int, 1+int(lanes)%9)
		r := rng.New(startBits)
		for i := range starts {
			// Half the lanes sit within a few steps of the order or of a
			// compaction boundary; the rest anywhere in [0, 3·full).
			switch r.Uint64() % 4 {
			case 0:
				starts[i] = max(0, p-4+int(r.Uint64()%8))
			case 1:
				starts[i] = full*(1+int(r.Uint64()%2)) - p*int(r.Uint64()%2) - 4 + int(r.Uint64()%8)
			default:
				starts[i] = int(r.Uint64() % uint64(3*full))
			}
		}
		checkLockstep(t, tr, seed, starts, int(n)%(3*p+1))
	})
}

// BenchmarkTruncatedLanes times Lanes generators past warm-up advanced by
// Next one after another (serial) and by FillLockstep (lockstep), in
// ns per sample, on the paper-scale FGN H=0.8 order.
func BenchmarkTruncatedLanes(b *testing.B) {
	plan, err := NewPlan(benchModel, 2048)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := plan.Truncate(TruncateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	gens := make([]*TruncatedGenerator, Lanes)
	out := make([][]float64, Lanes)
	for i := range gens {
		gens[i] = NewTruncatedGenerator(tr, rng.New(uint64(i+1)))
		out[i] = make([]float64, n)
		for range tr.Order() {
			gens[i].Next()
		}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*Lanes), "ns/frame")
	}
	b.Run("serial", func(b *testing.B) {
		for range b.N {
			for i, g := range gens {
				for k := range out[i] {
					out[i][k] = g.Next()
				}
			}
		}
		report(b)
	})
	b.Run("lockstep", func(b *testing.B) {
		for range b.N {
			FillLockstep(gens, out)
		}
		report(b)
	})
}
