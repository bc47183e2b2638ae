package hosking

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"vbrsim/internal/acf"
)

// planHash hashes the IEEE-754 bits of a plan's triangle, conditional
// variances and row sums, in that order.
func planHash(p *Plan) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, tab := range [][]float64{p.flat, p.v, p.phiSum} {
		for _, x := range tab {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestPlanGoldenHash pins the bits of exact plans: the hashes were recorded
// before the row kernel fused the next row's d_{k+1} and the row sum into
// the row update, so any reassociation in the kernel shows here. The long
// plan engages the chunked branch for rows beyond reduceChunk.
func TestPlanGoldenHash(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model acf.Model
		n     int
		long  bool
		want  uint64
	}{
		{"fgn-0.9", acf.FGN{H: 0.9}, 4096, false, 0x8e1b293531915f94},
		{"composite", pdComposite(t), 4096, false, 0x58b65ef7fa1664fc},
		{"fgn-0.9-chunked", acf.FGN{H: 0.9}, reduceChunk + 600, true, 0x172095cbcb4514b},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("long-plan construction")
			}
			p, err := NewPlan(tc.model, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if got := planHash(p); got != tc.want {
				t.Fatalf("plan hash %#x, want %#x", got, tc.want)
			}
		})
	}
}

// directTruncate is the reference the scan must reproduce: the full plan,
// then its truncation.
func directTruncate(model acf.Model, n int, opt TruncateOptions) (*Truncated, error) {
	p, err := NewPlan(model, n)
	if err != nil {
		return nil, err
	}
	return p.Truncate(opt)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestScanTruncateMatchesPlanTruncate checks the two-pass build field for
// field, bit for bit, against truncating the full plan: the order, the
// frozen row and its scalars, the measured ACF error and every table of
// the kept prefix.
func TestScanTruncateMatchesPlanTruncate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model acf.Model
		n     int
		opt   TruncateOptions
	}{
		{"fgn-0.7", acf.FGN{H: 0.7}, 4096, TruncateOptions{}},
		{"fgn-0.9", acf.FGN{H: 0.9}, 4096, TruncateOptions{}},
		{"composite", pdComposite(t), 4096, TruncateOptions{}},
		{"exp", acf.Exponential{Lambda: 0.2}, 4096, TruncateOptions{}},
		{"fgn-0.9-tol", acf.FGN{H: 0.9}, 4096, TruncateOptions{Tol: 1e-2, Run: 8}},
		{"fgn-0.9-acftol", acf.FGN{H: 0.9}, 1024, TruncateOptions{ACFTol: 0.05}},
		{"composite-acftol", pdComposite(t), 1024, TruncateOptions{ACFTol: 0.05}},
		{"exp-acftol", acf.Exponential{Lambda: 0.2}, 1024, TruncateOptions{ACFTol: 1e-4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := directTruncate(tc.model, tc.n, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := scanTruncate(context.Background(), tc.model, tc.n, tc.opt.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			if got.order != want.order || got.tol != want.tol ||
				math.Float64bits(got.v) != math.Float64bits(want.v) ||
				math.Float64bits(got.sqrtV) != math.Float64bits(want.sqrtV) ||
				math.Float64bits(got.phiSum) != math.Float64bits(want.phiSum) ||
				math.Float64bits(got.maxErr) != math.Float64bits(want.maxErr) {
				t.Fatalf("scan AR(%d) v %v phiSum %v err %v, plan AR(%d) v %v phiSum %v err %v",
					got.order, got.v, got.phiSum, got.maxErr, want.order, want.v, want.phiSum, want.maxErr)
			}
			if !sameBits(got.row, want.row) {
				t.Fatal("frozen rows differ")
			}
			g, w := got.head, want.head
			if g.n != w.n || !sameBits(g.r, w.r) || !sameBits(g.flat, w.flat) ||
				!sameBits(g.v, w.v) || !sameBits(g.phiSum, w.phiSum) {
				t.Fatalf("kept prefixes differ (%d vs %d steps)", g.n, w.n)
			}
		})
	}
}

// TestScanTruncateErrorsMatch checks the scan fails exactly where the plan
// and its truncation fail, with the same message: a non-positive-definite
// table at the same lag, every ErrNoTruncation path and invalid lengths.
func TestScanTruncateErrorsMatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model acf.Model
		n     int
		opt   TruncateOptions
		is    error
	}{
		{"not-pd", acf.PaperComposite(), 200, TruncateOptions{}, ErrNotPositiveDefinite},
		{"too-short", acf.FGN{H: 0.8}, 20, TruncateOptions{}, ErrNoTruncation},
		{"tol", acf.FGN{H: 0.95}, 64, TruncateOptions{Tol: 1e-12}, ErrNoTruncation},
		{"acftol", acf.FGN{H: 0.9}, 512, TruncateOptions{ACFTol: 1e-9}, ErrNoTruncation},
		{"bad-lag-zero", badLagZero{}, 64, TruncateOptions{}, nil},
		{"zero-length", acf.White{}, 0, TruncateOptions{}, nil},
		{"over-limit", acf.White{}, MaxPlanLen + 1, TruncateOptions{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, want := directTruncate(tc.model, tc.n, tc.opt)
			_, got := scanTruncate(context.Background(), tc.model, tc.n, tc.opt.withDefaults())
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("scan err %v, plan err %v", got, want)
			}
			if tc.is != nil && !errors.Is(got, tc.is) {
				t.Fatalf("err = %v, want %v", got, tc.is)
			}
		})
	}
}
