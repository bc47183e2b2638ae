package streamblock

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"vbrsim/internal/core"
	"vbrsim/internal/hosking"
	"vbrsim/internal/rng"
)

// TestBlockVsTruncatedRatio gates what the block engine is for: at the
// paper spec's truncation (p = 361) and DefaultTotal, filling 2·B frames
// in the server's 1024-frame chunks, two refills amortized, must cost a
// small fraction of the truncated AR(p) recursion producing the same
// number of frames. The median block/truncated time ratio over 11
// interleaved pairs, each side the fastest of 3 passes, must be <= 0.13.
// On a 2-vCPU Xeon the block engine before its AVX2 residual and radix-2
// kernels read medians of 0.079–0.107 (typically 0.097), and with them
// 0.068–0.073; a block engine that loses its kernels or refills twice as
// often reads above the bound.
func TestBlockVsTruncatedRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	const pairs, chunk = 11, 1024
	model := paperACF(t)
	trunc, err := core.TruncatedPlanForCtx(context.Background(), model, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(model, trunc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewStream(1)
	defer s.Close()
	frames := 2 * e.block
	out := make([]float64, frames)
	s.Fill(out[:e.block]) // warm the arena; later passes start on a block boundary
	gen := hosking.NewTruncatedGenerator(trunc, rng.New(1))
	for range trunc.Order() { // past the warm-up rows
		gen.Next()
	}
	block := func() {
		for lo := 0; lo < frames; lo += chunk {
			s.Fill(out[lo:min(lo+chunk, frames)])
		}
	}
	truncated := func() {
		for i := range out {
			out[i] = gen.Next()
		}
	}
	fastest := func(run func()) time.Duration {
		d := time.Duration(math.MaxInt64)
		for range 3 {
			t0 := time.Now()
			run()
			d = min(d, time.Since(t0))
		}
		return d
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		var db, dt time.Duration
		if i%2 == 0 {
			db, dt = fastest(block), fastest(truncated)
		} else {
			dt, db = fastest(truncated), fastest(block)
		}
		ratios[i] = float64(db) / float64(dt)
	}
	sort.Float64s(ratios)
	t.Logf("block/truncated fill time ratios over %d frames (sorted): %.3f", frames, ratios)
	if med := ratios[pairs/2]; med > 0.13 {
		t.Errorf("median block/truncated fill time ratio %.3f, want <= 0.13", med)
	}
}
