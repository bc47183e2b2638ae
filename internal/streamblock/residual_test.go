package streamblock

import (
	"math"
	"sort"
	"testing"
	"time"

	"vbrsim/internal/cpu"
	"vbrsim/internal/rng"
)

// arResidualRows is the row-at-a-time residual pass arResidual replaces.
func arResidualRows(diff, phi []float64) {
	for t := len(diff) - 1; t >= 1; t-- {
		var acc float64
		for k := 1; k <= t; k++ {
			acc += phi[k] * diff[t-k]
		}
		diff[t] -= acc
	}
}

// residualCase draws an order-p residual input: coefficients of one scale,
// so every term's rounding matters and any change in summation order shows
// in the bits.
func residualCase(r *rng.Source, p int) (diff, phi []float64) {
	phi = make([]float64, p+1)
	diff = make([]float64, p)
	for i := 1; i <= p; i++ {
		phi[i] = r.Norm()
	}
	for i := range diff {
		diff[i] = r.Norm()
	}
	return diff, phi
}

// checkResidual runs arResidual (the 16-row AVX2 kernel where the CPU has
// it, then the four-row Go loop) against the row-at-a-time loop and
// requires the same bits in every row.
func checkResidual(t *testing.T, diff, phi []float64) {
	t.Helper()
	want := append([]float64(nil), diff...)
	arResidualRows(want, phi)
	arResidual(diff, phi)
	for i := range want {
		if math.Float64bits(diff[i]) != math.Float64bits(want[i]) {
			t.Fatalf("p=%d row %d: arResidual %v, row-at-a-time %v", len(diff), i, diff[i], want[i])
		}
	}
}

// TestARResidualMatchesRows pins the residual pass to the row-at-a-time
// loop bit for bit, for every order 1..40 (no 16-row group, one group, two
// groups, with every leftover count for the four-row loop) and the paper
// model's p = 361.
func TestARResidualMatchesRows(t *testing.T) {
	r := rng.New(17)
	check := func(p int) {
		diff, phi := residualCase(r, p)
		checkResidual(t, diff, phi)
	}
	for p := 1; p <= 40; p++ {
		check(p)
	}
	check(361)
}

// FuzzResidualVsRows compares arResidual with the row-at-a-time loop bit
// for bit at random orders 1..400.
func FuzzResidualVsRows(f *testing.F) {
	f.Add(uint64(1), uint16(16))
	f.Add(uint64(2), uint16(17))
	f.Add(uint64(3), uint16(361))
	f.Fuzz(func(t *testing.T, seed uint64, order uint16) {
		diff, phi := residualCase(rng.New(seed), 1+int(order)%400)
		checkResidual(t, diff, phi)
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestResidualKernelRatio gates arResidual, which runs the 16-row AVX2
// kernel, against the four-row Go loop alone at the paper model's p = 361:
// the median time ratio over 11 interleaved pairs, each side the fastest of
// 3 passes, must be <= 0.75.
func TestResidualKernelRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	if !cpu.AVX2 {
		t.Skip("CPU lacks AVX2")
	}
	const p, pairs = 361, 11
	src, phi := residualCase(rng.New(3), p)
	diff := make([]float64, p)
	fastest := func(run func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for range 3 {
			copy(diff, src)
			t0 := time.Now()
			run()
			d = min(d, time.Since(t0))
		}
		return d
	}
	vec := func() { arResidual(diff, phi) }
	scalar := func() { arResidualFrom(diff, phi, p-1) }
	fastest(vec)
	fastest(scalar)
	ratios := make([]float64, pairs)
	for i := range ratios {
		var dv, ds time.Duration
		if i%2 == 0 {
			dv, ds = fastest(vec), fastest(scalar)
		} else {
			ds, dv = fastest(scalar), fastest(vec)
		}
		ratios[i] = float64(dv) / float64(ds)
	}
	sort.Float64s(ratios)
	t.Logf("arResidual/arResidualFrom time ratios at p = %d (sorted): %.3f", p, ratios)
	if med := ratios[pairs/2]; med > 0.75 {
		t.Errorf("median AVX2/Go residual time ratio %.3f, want <= 0.75", med)
	}
}

func BenchmarkARResidual(b *testing.B) {
	const p = 361
	r := rng.New(3)
	phi := make([]float64, p+1)
	src := make([]float64, p)
	for i := 1; i <= p; i++ {
		phi[i] = r.Norm() / float64(i)
	}
	for i := range src {
		src[i] = r.Norm()
	}
	diff := make([]float64, p)
	for _, bc := range []struct {
		name string
		f    func(diff, phi []float64)
	}{
		{"rows", arResidualRows},
		{"four", func(diff, phi []float64) { arResidualFrom(diff, phi, len(diff)-1) }},
		{"lanes", arResidual},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(diff, src)
				bc.f(diff, phi)
			}
		})
	}
}
