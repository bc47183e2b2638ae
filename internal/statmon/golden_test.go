package statmon

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/dist"
	"vbrsim/internal/rng"
)

// update rewrites the snapshot golden instead of comparing against it:
//
//	go test ./internal/statmon -run TestSnapshotGolden -update
var update = flag.Bool("update", false, "rewrite the snapshot golden file")

const snapshotGolden = "testdata/snapshots.golden.json"

// goldenFrames is a deterministic lognormal AR(1) series around the paper's
// frame sizes (e^9.6 ≈ 15 kB): correlated enough that every check has
// something to score, and independent of any synthesis engine.
func goldenFrames(n int, seed uint64) []float64 {
	r := rng.New(seed)
	x := make([]float64, n)
	var g float64
	for i := range x {
		g = 0.9*g + math.Sqrt(1-0.81)*r.Norm()
		x[i] = math.Exp(9.6 + 0.4*g)
	}
	return x
}

// goldenRef is a full reference against goldenFrames' marginal, with an
// fGn implied ACF of the given length.
func goldenRef(h float64, acfLen int) Ref {
	return Ref{
		H:          h,
		AsymH:      h,
		ImpliedACF: acf.Table(acf.FGN{H: h}, acfLen),
		Mean:       math.Exp(9.6 + 0.08),
		Quantile:   func(p float64) float64 { return math.Exp(9.6 + 0.4*dist.StdNormal.Quantile(p)) },
	}
}

// goldenOp is one step of a golden sequence: a chunk of n frames observed
// at pos, or, with n == 0, a snapshot.
type goldenOp struct {
	pos int64
	n   int
}

func snap() goldenOp { return goldenOp{} }

// contiguous offers count chunks of n frames from pos on.
func contiguous(pos int64, n, count int) []goldenOp {
	ops := make([]goldenOp, count)
	for i := range ops {
		ops[i] = goldenOp{pos: pos + int64(i*n), n: n}
	}
	return ops
}

type goldenCase struct {
	name string
	cfg  Config
	ref  Ref
	ops  []goldenOp
}

func seq(parts ...any) []goldenOp {
	var ops []goldenOp
	for _, p := range parts {
		switch v := p.(type) {
		case goldenOp:
			ops = append(ops, v)
		case []goldenOp:
			ops = append(ops, v...)
		}
	}
	return ops
}

func goldenCases() []goldenCase {
	lie := goldenRef(0.8, 1025)
	lie.H = 0.9
	return []goldenCase{
		{
			// Fewer than five observations per P² sketch (every 4th
			// frame reaches the sketches), then across the seeding.
			name: "few-sketch-observations",
			ref:  goldenRef(0.8, 1025),
			ops: seq(goldenOp{0, 3}, snap(), goldenOp{3, 9}, snap(), goldenOp{12, 4}, snap(),
				goldenOp{16, 4}, snap(), goldenOp{20, 8}, snap()),
		},
		{
			// Chunks whose run crosses maxLag = 128 mid-chunk, then a gap
			// that restarts the warm-up.
			name: "warmup-straddles-maxlag",
			ref:  goldenRef(0.8, 1025),
			ops: seq(goldenOp{0, 100}, snap(), goldenOp{100, 20}, goldenOp{120, 30}, snap(),
				goldenOp{150, 5}, goldenOp{155, 200}, snap(), goldenOp{9000, 130}, goldenOp{9130, 50}, snap(),
				contiguous(9180, 127, 6), snap()),
		},
		{
			// Forward and backward seeks, one-frame and empty chunks, and
			// a chunk offered twice at the same position.
			name: "gaps-and-seeks",
			ref:  goldenRef(0.75, 1025),
			ops: seq(contiguous(0, 512, 2), snap(), goldenOp{5000, 1}, goldenOp{5001, 1}, goldenOp{5002, 0},
				goldenOp{100, 300}, goldenOp{100, 300}, snap(), goldenOp{400, 1024}, goldenOp{1 << 40, 64},
				contiguous(64, 1000, 5), snap()),
		},
		{
			// SampleEvery > 1: only every third chunk is observed.
			name: "sample-every-3",
			cfg:  Config{SampleEvery: 3},
			ref:  goldenRef(0.8, 1025),
			ops:  seq(contiguous(0, 256, 7), snap(), contiguous(7*256, 256, 30), snap(), contiguous(37*256, 1024, 60), snap()),
		},
		{
			// The server's configuration: 1 in 32 chunks, MaxScale 1024.
			name: "sample-every-32",
			cfg:  Config{SampleEvery: 32, MaxScale: 1024},
			ref:  goldenRef(0.8, 1025),
			ops:  seq(contiguous(0, 1024, 31), snap(), contiguous(31*1024, 1024, 1), snap(), contiguous(32*1024, 1024, 200), snap()),
		},
		{
			// A custom lag set, quantile set and a MaxScale that is not a
			// power of two, with every threshold set.
			name: "custom-config",
			cfg: Config{Lags: []int{1, 3, 5, 100, 300}, Quantiles: []float64{0.05, 0.5, 0.95},
				HurstTol: 0.05, ACFTol: 0.2, MarginTol: 0.1, DriftThreshold: 0.5,
				MinFrames: 100, MinScale: 4, MaxScale: 700, MinBlocks: 8},
			ref: goldenRef(0.85, 701),
			ops: seq(contiguous(0, 700, 3), snap(), contiguous(2100, 700, 20), snap()),
		},
		{
			// An implied ACF shorter than the largest lag and MaxScale:
			// the ACF and Hurst checks switch off, the marginal stays.
			name: "short-reference",
			cfg:  Config{MinFrames: 1},
			ref:  goldenRef(0.8, 100),
			ops:  seq(contiguous(0, 1024, 40), snap()),
		},
		{
			// More than 2^11 frames: the variance-time fit activates.
			name: "long",
			ref:  goldenRef(0.8, 1025),
			ops: seq(contiguous(0, 1024, 2), snap(), contiguous(2048, 1024, 2), snap(), contiguous(4096, 1024, 12), snap(),
				contiguous(16384, 1024, 112), snap()),
		},
		{
			// The claimed H disagrees with the implied ACF's.
			name: "long-wrong-h",
			ref:  lie,
			ops:  seq(contiguous(0, 1024, 128), snap()),
		},
		{
			// An empty reference tracks statistics and never scores.
			name: "empty-reference",
			cfg:  Config{MinFrames: 1},
			ops:  seq(contiguous(0, 1024, 64), snap()),
		},
		{
			// A MaxScale past the ladder's top level.
			name: "huge-maxscale",
			cfg:  Config{MaxScale: 1 << 30, MinBlocks: 2},
			ref:  goldenRef(0.8, 1025),
			ops:  seq(contiguous(0, 1024, 32), snap()),
		},
	}
}

// Snapshots are kept with every float64 as its IEEE-754 bit pattern, so the
// comparison is bit for bit (signed zeros and NaNs included).
type goldenLag struct {
	Lag              int
	Observed, Ref, N string
}

type goldenQuantile struct {
	P, Observed, Ref string
}

type goldenSnapshot struct {
	Frames                    uint64
	Mean, Variance            string
	Hurst, HurstRef, HurstErr string
	HurstValid                bool
	ACF                       []goldenLag
	ACFErr                    string
	Quantiles                 []goldenQuantile
	MarginalErr, Drift        string
	Drifting                  bool
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func toGolden(s Snapshot) goldenSnapshot {
	g := goldenSnapshot{
		Frames: s.Frames, Mean: bits(s.Mean), Variance: bits(s.Variance),
		Hurst: bits(s.Hurst), HurstRef: bits(s.HurstRef), HurstErr: bits(s.HurstErr), HurstValid: s.HurstValid,
		ACFErr: bits(s.ACFErr), MarginalErr: bits(s.MarginalErr), Drift: bits(s.Drift), Drifting: s.Drifting,
	}
	for _, lc := range s.ACF {
		g.ACF = append(g.ACF, goldenLag{Lag: lc.Lag, Observed: bits(lc.Observed), Ref: bits(lc.Ref), N: bits(lc.N)})
	}
	for _, q := range s.Quantiles {
		g.Quantiles = append(g.Quantiles, goldenQuantile{P: bits(q.P), Observed: bits(q.Observed), Ref: bits(q.Ref)})
	}
	return g
}

// runGolden plays a case and returns its snapshots in order.
func runGolden(c goldenCase, frames []float64) []goldenSnapshot {
	m := New(c.cfg, c.ref)
	var out []goldenSnapshot
	for _, op := range c.ops {
		if op.n == 0 && op.pos == 0 {
			out = append(out, toGolden(m.Snapshot()))
			continue
		}
		// A chunk reads the series at its own position, so contiguous
		// chunks carry a contiguous stretch of it.
		start := int(op.pos % int64(len(frames)-op.n))
		m.Observe(op.pos, frames[start:start+op.n])
	}
	return out
}

// TestSnapshotGolden pins every Snapshot field, bit for bit, over sequences
// that reach each branch of the monitor's state: P² seeding, the lag
// warm-up, gaps and seeks, chunk sampling, custom configurations, the
// variance-time fit and the ladder's top level.
func TestSnapshotGolden(t *testing.T) {
	frames := goldenFrames(1<<18, 7)
	got := make(map[string][]goldenSnapshot)
	for _, c := range goldenCases() {
		got[c.name] = runGolden(c, frames)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(snapshotGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(snapshotGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]goldenSnapshot
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, the test plays %d", len(want), len(got))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d snapshots, golden has %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Errorf("%s: snapshot %d differs from the golden\n got %+v\nwant %+v", name, i, g[i], w[i])
			}
		}
	}
}
