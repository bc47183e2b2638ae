package hosking

import (
	"math"
	"slices"
	"testing"

	"vbrsim/internal/cpu"
	"vbrsim/internal/rng"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// edgeSample draws a history value that stresses the lanes' rounding:
// signed zeros, subnormals, large and tiny magnitudes, or an ordinary
// normal.
func edgeSample(r *rng.Source) float64 {
	edges := [...]float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308,
		-1.5e-310, 1e300, -3e299, 1e-300, 7.5e150}
	if k := r.Intn(2 * len(edges)); k < len(edges) {
		return edges[k]
	}
	return r.Norm()
}

// TestLanesAVX2MatchesGo runs FillLockstep with the AVX2 kernel and with
// the Go loop over groups of every size k = 2..Lanes whose windows hold
// edge values, for step counts that end inside the first arena pass, right
// past it and two shifts later, then a second fill that starts with a
// normal spare pending. Both must give Next's bits and state.
func TestLanesAVX2MatchesGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPU lacks AVX2")
	}
	defer func(on bool) { cpu.AVX2 = on }(cpu.AVX2)
	tr, err := lockstepTrunc()
	if err != nil {
		t.Fatal(err)
	}
	p := tr.Order()
	// open returns k generators seeded from seed, past warm-up, whose
	// windows hold edge values drawn from rng.New(seed).
	open := func(k int, seed uint64) []*TruncatedGenerator {
		r := rng.New(seed)
		gens := make([]*TruncatedGenerator, k)
		for l := range gens {
			gens[l] = NewTruncatedGenerator(tr, rng.New(seed+uint64(l)))
			for range p + l*7 {
				gens[l].Next()
			}
			w := gens[l].buf[len(gens[l].buf)-p:]
			for i := range w {
				w[i] = edgeSample(r)
			}
		}
		return gens
	}
	for k := 2; k <= Lanes; k++ {
		for _, n := range []int{1, laneSeg - 1, laneSeg, laneSeg + 3, 2*laneSeg + p + 1} {
			seed := uint64(1000*k + n)
			vec, scalar, next := open(k, seed), open(k, seed), open(k, seed)
			for pass, m := range []int{n, 5} {
				outV, outS := make([][]float64, k), make([][]float64, k)
				for l := range outV {
					outV[l], outS[l] = make([]float64, m), make([]float64, m)
				}
				cpu.AVX2 = true
				FillLockstep(vec, outV)
				cpu.AVX2 = false
				FillLockstep(scalar, outS)
				for l, g := range next {
					for j := range m {
						x := g.Next()
						if math.Float64bits(outV[l][j]) != math.Float64bits(x) || math.Float64bits(outS[l][j]) != math.Float64bits(x) {
							t.Fatalf("k %d n %d pass %d: lane %d step %d: avx2 %v, go %v, Next %v", k, n, pass, l, j, outV[l][j], outS[l][j], x)
						}
					}
					for _, got := range []*TruncatedGenerator{vec[l], scalar[l]} {
						if got.pos != g.pos || !slices.Equal(got.buf, g.buf) || *got.rng != *g.rng {
							t.Fatalf("k %d n %d pass %d: lane %d state differs from Next's", k, n, pass, l)
						}
					}
				}
			}
		}
	}
}
