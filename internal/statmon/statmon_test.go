package statmon

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/dist"
	"vbrsim/internal/rng"
)

func fgnPath(t testing.TB, h float64, n int, seed uint64) []float64 {
	t.Helper()
	p, err := daviesharte.NewPlan(acf.FGN{H: h}, n, daviesharte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p.Path(rng.New(seed))
}

// feed pushes x through the monitor in serve-path-sized contiguous chunks.
func feed(m *Monitor, x []float64) {
	const chunk = 1024
	for pos := 0; pos < len(x); pos += chunk {
		end := pos + chunk
		if end > len(x) {
			end = len(x)
		}
		m.Observe(int64(pos), x[pos:end])
	}
}

func fgnRef(h float64, maxScale int) Ref {
	return Ref{
		H:          h,
		AsymH:      h,
		ImpliedACF: acf.Table(acf.FGN{H: h}, maxScale+1),
		Quantile:   func(p float64) float64 { return dist.StdNormal.Quantile(p) },
	}
}

func TestP2MatchesExactQuantiles(t *testing.T) {
	r := rng.New(42)
	const n = 200000
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Exp(0.5 * r.Norm()) // skewed, like frame sizes
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		var s p2
		for _, v := range x {
			s.push(v, p)
		}
		sorted := append([]float64(nil), x...)
		sort.Float64s(sorted)
		exact := sorted[int(p*float64(n))]
		if rel := math.Abs(s.quantile(p)-exact) / exact; rel > 0.02 {
			t.Errorf("p=%v: P² = %v, exact = %v (rel err %v)", p, s.quantile(p), exact, rel)
		}
	}
}

func TestP2TinySample(t *testing.T) {
	var s p2
	for _, v := range []float64{3, 1, 2} {
		s.push(v, 0.5)
	}
	if q := s.quantile(0.5); q != 2 {
		t.Errorf("median of {1,2,3} = %v, want 2", q)
	}
}

func TestMonitorConformingStreamNoDrift(t *testing.T) {
	x := fgnPath(t, 0.8, 1<<17, 11)
	m := New(Config{}, fgnRef(0.8, 1024))
	feed(m, x)
	s := m.Snapshot()
	if s.Frames != 1<<17 {
		t.Fatalf("frames = %d, want %d", s.Frames, 1<<17)
	}
	if !s.HurstValid {
		t.Fatal("hurst check did not activate")
	}
	if s.HurstErr > 0.05 {
		t.Errorf("conforming stream hurst err = %v (est %v, ref %v)", s.HurstErr, s.Hurst, s.HurstRef)
	}
	if s.ACFErr > 0.05 {
		t.Errorf("conforming stream acf err = %v", s.ACFErr)
	}
	if s.MarginalErr > 0.1 {
		t.Errorf("conforming stream marginal err = %v", s.MarginalErr)
	}
	if s.Drifting {
		t.Errorf("conforming stream flagged drifting (score %v)", s.Drift)
	}
}

// TestMonitorWrongHDrifts is the core mis-modeling scenario: the generator
// follows its own ACF (fGn with H=0.75) but the session's fit metadata
// claims H=0.9 — the paper value, off by 0.15. The bias-cancelled reference
// shifts by the claimed-vs-implied gap, so the full 0.15 must surface.
func TestMonitorWrongHDrifts(t *testing.T) {
	x := fgnPath(t, 0.75, 1<<17, 13)
	ref := fgnRef(0.75, 1024)
	ref.H = 0.9 // the lie
	m := New(Config{}, ref)
	feed(m, x)
	s := m.Snapshot()
	if !s.HurstValid {
		t.Fatal("hurst check did not activate")
	}
	if s.HurstErr < 0.10 {
		t.Errorf("mis-modeled stream hurst err = %v, want ~0.15", s.HurstErr)
	}
	if !s.Drifting {
		t.Errorf("mis-modeled stream not flagged (score %v)", s.Drift)
	}
	// The generated traffic still matches its own ACF and marginal — only
	// the Hurst term should fire.
	if s.ACFErr > 0.05 {
		t.Errorf("acf err = %v should stay small (generation matches spec)", s.ACFErr)
	}
}

func TestMonitorWrongMarginalDrifts(t *testing.T) {
	x := fgnPath(t, 0.8, 1<<15, 17)
	ref := fgnRef(0.8, 1024)
	// Claim a marginal shifted by 2σ: every quantile is off by 2 units
	// against a 0.9-0.1 spread of ~2.56.
	ref.Quantile = func(p float64) float64 { return dist.StdNormal.Quantile(p) + 2 }
	m := New(Config{}, ref)
	feed(m, x)
	s := m.Snapshot()
	if s.MarginalErr < 0.5 {
		t.Errorf("marginal err = %v, want ~0.78", s.MarginalErr)
	}
	if !s.Drifting {
		t.Errorf("wrong-marginal stream not flagged (score %v)", s.Drift)
	}
}

func TestMonitorSampling(t *testing.T) {
	x := fgnPath(t, 0.8, 1<<17, 19)
	m := New(Config{SampleEvery: 4}, fgnRef(0.8, 1024))
	feed(m, x)
	s := m.Snapshot()
	want := uint64(1 << 15)
	if s.Frames != want {
		t.Fatalf("sampled frames = %d, want %d", s.Frames, want)
	}
	if !s.HurstValid {
		t.Fatal("hurst check did not activate on sampled stream")
	}
	if s.Drifting {
		t.Errorf("sampled conforming stream flagged drifting (score %v, hurst err %v)", s.Drift, s.HurstErr)
	}
}

func TestMonitorGapResetsACFRun(t *testing.T) {
	x := fgnPath(t, 0.8, 4096, 23)
	m := New(Config{}, fgnRef(0.8, 1024))
	m.Observe(0, x[:1024])
	m.Observe(500000, x[1024:2048]) // seek: not contiguous
	m.Observe(501024, x[2048:3072]) // contiguous with previous
	s := m.Snapshot()
	// Lag-1 products: 1023 within each of the first two runs... the third
	// chunk continues the second run, so 1023 + 2047 = 3070 products.
	for _, lc := range s.ACF {
		if lc.Lag == 1 && lc.N != 3070 {
			t.Errorf("lag-1 products = %v, want 3070 (gap must reset the run)", lc.N)
		}
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	x := fgnPath(t, 0.8, 1<<14, 29)
	m := New(Config{}, fgnRef(0.8, 1024))
	feed(m, x) // reach steady state (P² markers initialized)
	pos := int64(1 << 14)
	chunk := x[:1024]
	allocs := testing.AllocsPerRun(100, func() {
		m.Observe(pos, chunk)
		pos += 1024
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %v per chunk, want 0", allocs)
	}
}

// TestObserveConcurrentSnapshot offers chunks from several goroutines while
// others take snapshots; run under -race it checks that a skipped chunk
// touches only the offered counter, which races with nothing. Exactly one
// in SampleEvery offered chunks is observed, whatever the interleaving.
func TestObserveConcurrentSnapshot(t *testing.T) {
	const (
		writers = 4
		chunks  = 200
		chunk   = 64
		every   = 4
	)
	x := goldenFrames(writers*chunks*chunk, 3)
	m := New(Config{SampleEvery: every}, goldenRef(0.8, 1025))
	var observed atomic.Int64
	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	for range 2 {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if f := m.Snapshot().Frames; f%chunk != 0 {
					t.Errorf("snapshot saw %d frames, not whole chunks", f)
					return
				}
			}
		}()
	}
	for w := range writers {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for c := range chunks {
				pos := (w*chunks + c) * chunk
				if m.Observe(int64(pos), x[pos:pos+chunk]) {
					observed.Add(1)
				}
			}
		}()
	}
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	want := int64(writers * chunks / every)
	if got := observed.Load(); got != want {
		t.Fatalf("%d chunks observed, want %d", got, want)
	}
	if got := m.Snapshot().Frames; got != uint64(want*chunk) {
		t.Fatalf("snapshot counts %d frames, want %d", got, want*chunk)
	}
}

func TestNilAndEmptyMonitor(t *testing.T) {
	var m *Monitor
	if m.Observe(0, []float64{1}) {
		t.Error("nil monitor observed a chunk")
	}
	// An empty Ref tracks stats but never scores drift.
	me := New(Config{MinFrames: 1}, Ref{})
	feed(me, fgnPath(t, 0.9, 1<<15, 31))
	s := me.Snapshot()
	if s.Drift != 0 || s.Drifting {
		t.Errorf("empty-ref monitor scored drift %v", s.Drift)
	}
	if s.Frames != 1<<15 {
		t.Errorf("frames = %d", s.Frames)
	}
}

func BenchmarkObserveChunk(b *testing.B) {
	x := fgnPath(b, 0.8, 1<<14, 1)
	m := New(Config{}, fgnRef(0.8, 1024))
	feed(m, x)
	chunk := x[:1024]
	pos := int64(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(pos, chunk)
		pos += 1024
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/frame")
}
