package hosking

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"vbrsim/internal/cpu"
	"vbrsim/internal/rng"
)

// checkLanesKernel runs lanesAVX2 and lanesGo over all Lanes lanes of
// copies of arena h and requires the same bits everywhere.
func checkLanesKernel(t *testing.T, h [][Lanes]float64, row []float64, n int) {
	t.Helper()
	vec, scalar := slices.Clone(h), slices.Clone(h)
	lanesAVX2(vec, row, n)
	lanesGo(scalar, row, n, true)
	for r := range vec {
		for l := range Lanes {
			if math.Float64bits(vec[r][l]) != math.Float64bits(scalar[r][l]) {
				t.Fatalf("p %d n %d: row %d lane %d: avx2 %v, go %v", len(row), n, r, l, vec[r][l], scalar[r][l])
			}
		}
	}
}

// lanesCase draws an order-p arena for n steps: edge-valued window and
// innovation rows, and a row of one scale, so every term's rounding
// matters and any change in summation order shows in the bits.
func lanesCase(r *rng.Source, p, n int) (h [][Lanes]float64, row []float64) {
	h = make([][Lanes]float64, p+n)
	for i := range h {
		for l := range Lanes {
			h[i][l] = edgeSample(r)
		}
	}
	row = make([]float64, p)
	for i := range row {
		row[i] = r.Norm() / float64(p)
	}
	return h, row
}

// FuzzLanesKernelVsGo compares the AVX2 lanes kernel with the Go loop bit
// for bit at random orders 1..400 and step counts 1..laneSeg. It skips
// without AVX2.
func FuzzLanesKernelVsGo(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint16(1))
	f.Add(uint64(2), uint16(30), uint16(255))
	f.Add(uint64(3), uint16(361), uint16(256))
	f.Fuzz(func(t *testing.T, seed uint64, order, steps uint16) {
		if !cpu.AVX2 {
			t.Skip("CPU lacks AVX2")
		}
		p, n := 1+int(order)%400, 1+int(steps)%laneSeg
		h, row := lanesCase(rng.New(seed), p, n)
		checkLanesKernel(t, h, row, n)
	})
}

// TestLanesKernelRatio gates the AVX2 lanes kernel against the Go loop it
// replaces at the paper model's p = 361: one arena pass of laneSeg steps
// over all Lanes lanes, the median AVX2/Go time ratio over 11 interleaved
// pairs, each side the fastest of 3 passes, must be <= 0.5. A 2-vCPU Xeon
// reads about 0.3.
func TestLanesKernelRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	if !cpu.AVX2 {
		t.Skip("CPU lacks AVX2")
	}
	const p, pairs = 361, 11
	r := rng.New(5)
	src := make([][Lanes]float64, p+laneSeg)
	for i := range src {
		for l := range Lanes {
			src[i][l] = r.Norm()
		}
	}
	row := make([]float64, p)
	for i := range row {
		row[i] = r.Norm() / p
	}
	checkLanesKernel(t, src, row, laneSeg)
	h := make([][Lanes]float64, len(src))
	fastest := func(run func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for range 3 {
			copy(h, src)
			t0 := time.Now()
			run()
			d = min(d, time.Since(t0))
		}
		return d
	}
	vec := func() { lanesAVX2(h, row, laneSeg) }
	scalar := func() { lanesGo(h, row, laneSeg, true) }
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
	t.Logf("lanes avx2/go time ratios at p = %d (sorted): %.3f", p, ratios)
	if med := ratios[pairs/2]; med > 0.5 {
		t.Errorf("median lanes avx2/go time ratio %.3f, want <= 0.5", med)
	}
}
