package conformance

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/streamblock"
)

// update regenerates the golden traces instead of comparing against them:
//
//	go test ./internal/conformance -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden trace files")

const (
	goldenFrames = 256
	goldenSeed   = 424242
)

// goldenSources enumerates every deterministic frame producer that gets a
// golden trace: the background backends pushed through the marginal
// transform, plus the serving paths (modelspec.Stream via Spec.Frames —
// exactly what trafficd emits) on both engines, the block engine both at
// its start and across a stitched boundary after a seek.
func goldenSources(ctx context.Context) (map[string][]float64, error) {
	comp, tr, _, err := paperModel()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	for _, b := range coreBackends() {
		bg, err := b.path(ctx, comp, goldenFrames, goldenSeed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		out[b.name] = tr.ApplySlice(bg)
	}
	spec := modelspec.Paper()
	spec.Seed = goldenSeed
	frames, err := spec.Frames(ctx, 0, goldenFrames, 0)
	if err != nil {
		return nil, err
	}
	out["stream"] = frames
	spec.Engine = modelspec.EngineBlock
	blockFrames, err := spec.Frames(ctx, 0, goldenFrames, 0)
	if err != nil {
		return nil, err
	}
	out["stream_block"] = blockFrames
	// Block 0 has no stitch. A read from 4·B−128 seeks (refilling the raw
	// block 3 for its history, then block 4 stitched) and crosses from
	// block 3's tail into block 4's stitched head, so it pins the stitch
	// and both the draws and the transforms of a seeked refill.
	trunc, err := truncatedFor(ctx, comp)
	if err != nil {
		return nil, err
	}
	block := streamblock.DefaultTotal - trunc.Order()
	stitched, err := spec.Frames(ctx, 4*block-128, goldenFrames, 0)
	if err != nil {
		return nil, err
	}
	out["stream_block_stitched"] = stitched
	gopSpec := modelspec.Spec{
		Seed:   goldenSeed,
		Engine: modelspec.EngineGOP,
		GOP:    &modelspec.GOPSpec{},
	}
	gopFrames, err := gopSpec.Frames(ctx, 0, goldenFrames, 0)
	if err != nil {
		return nil, err
	}
	out["stream_gop"] = gopFrames
	return out, nil
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".txt")
}

// TestGoldenTraces locks the first 256 frames of every backend at a fixed
// seed, bit-exact: each line of the golden file is the big-endian hex of
// math.Float64bits, so ANY numeric change — reordered floating-point
// reduction, changed RNG draw order, different truncation — fails the
// test, even when it is statistically invisible. Intentional changes are
// re-blessed with -update.
func TestGoldenTraces(t *testing.T) {
	sources, err := goldenSources(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, frames := range sources {
		t.Run(name, func(t *testing.T) {
			if len(frames) != goldenFrames {
				t.Fatalf("generated %d frames, want %d", len(frames), goldenFrames)
			}
			path := goldenPath(name)
			if *update {
				writeGolden(t, path, frames)
				return
			}
			want := readGolden(t, path)
			if len(want) != len(frames) {
				t.Fatalf("%s holds %d frames, want %d (rerun with -update after intentional changes)", path, len(want), len(frames))
			}
			for i, w := range want {
				got := math.Float64bits(frames[i])
				if got != w {
					t.Fatalf("frame %d: got %x (%v), want %x (%v) — bit-exact regression; rerun with -update only if the change is intentional",
						i, got, frames[i], w, math.Float64frombits(w))
				}
			}
		})
	}
}

func writeGolden(t *testing.T, path string, frames []float64) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, v := range frames {
		fmt.Fprintf(w, "%016x\n", math.Float64bits(v))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d frames)", path, len(frames))
}

func readGolden(t *testing.T, path string) []uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	var out []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		bits, err := strconv.ParseUint(line, 16, 64)
		if err != nil {
			t.Fatalf("%s: bad line %q: %v", path, line, err)
		}
		out = append(out, bits)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
