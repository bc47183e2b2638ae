package hosking

import (
	"math"
	"sync"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/rng"
)

// The flat reversed-row plan must agree bit-for-bit with the historical
// ragged implementation: same tables, same conditional means, same paths
// from the same seed.
func TestFlatMatchesRaggedBitwise(t *testing.T) {
	model := acf.PaperComposite().Continuous()
	const n = 700
	flat, err := NewPlanOpts(model, n, PlanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ragged, err := NewRaggedPlan(model, n)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if flat.CondVar(k) != ragged.CondVar(k) {
			t.Fatalf("CondVar differs at %d: %v vs %v", k, flat.CondVar(k), ragged.CondVar(k))
		}
		if flat.PhiRowSum(k) != ragged.PhiRowSum(k) {
			t.Fatalf("PhiRowSum differs at %d", k)
		}
		if flat.PartialCorr(k) != ragged.PartialCorr(k) {
			t.Fatalf("PartialCorr differs at %d", k)
		}
	}
	// Every coefficient, not just the diagonals.
	for k := 1; k < n; k++ {
		row := flat.row(k)
		for j := 1; j <= k; j++ {
			if row[k-j] != ragged.Coeff(k, j) {
				t.Fatalf("phi_{%d,%d} differs: %v vs %v", k, j, row[k-j], ragged.Coeff(k, j))
			}
		}
	}
	a := flat.Path(rng.New(99), n)
	b := ragged.Path(rng.New(99), n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("paths diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Parallel construction must be bit-identical to serial for rows long
// enough to engage the chunked reductions (k-1 > reduceChunk).
func TestNewPlanWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("long-plan construction")
	}
	model := acf.FGN{H: 0.85}
	n := reduceChunk + 600 // forces multi-chunk rows at the tail
	serial, err := NewPlanOpts(model, n, PlanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		par, err := NewPlanOpts(model, n, PlanOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if serial.v[k] != par.v[k] || serial.phiSum[k] != par.phiSum[k] {
				t.Fatalf("workers=%d: tables differ at step %d", workers, k)
			}
		}
		for i := range serial.flat {
			if serial.flat[i] != par.flat[i] {
				t.Fatalf("workers=%d: phi differs at flat index %d", workers, i)
			}
		}
	}
}

// Below the chunk cutoff the new construction must reproduce the seed
// recursion exactly — the ragged reference IS the seed recursion, and this
// holds for the default (parallel-capable) NewPlan, not only Workers=1.
func TestDefaultNewPlanMatchesSeedBelowCutoff(t *testing.T) {
	model := acf.FGN{H: 0.9}
	const n = 512
	p, err := NewPlan(model, n)
	if err != nil {
		t.Fatal(err)
	}
	ragged, err := NewRaggedPlan(model, n)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Path(rng.New(7), n)
	b := ragged.Path(rng.New(7), n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("paths diverge at %d", i)
		}
	}
}

// The truncated view must report an ACF error within the configured
// tolerance, and the error must be real: recomputing the AR-implied
// autocorrelation independently must agree with the reported bound.
func TestTruncateACFErrorBound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		model  acf.Model
		acfTol float64
	}{
		{"fgn-0.9", acf.FGN{H: 0.9}, 0.05},
		{"fgn-0.7", acf.FGN{H: 0.7}, 0.01},
		{"composite", acf.PaperComposite().Continuous(), 0.05},
		{"exp", acf.Exponential{Lambda: 0.2}, 1e-4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := NewPlan(tc.model, 2048)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := plan.Truncate(TruncateOptions{Tol: 1e-3, ACFTol: tc.acfTol})
			if err != nil {
				t.Fatal(err)
			}
			if tr.MaxACFError() > tc.acfTol {
				t.Fatalf("reported ACF error %v exceeds tolerance %v", tr.MaxACFError(), tc.acfTol)
			}
			if tr.Order() < 1 || tr.Order() >= plan.Len() {
				t.Fatalf("implausible order %d", tr.Order())
			}
			// Independent check of the implied-ACF deviation: extend the
			// autocorrelation with the Yule-Walker recursion using the
			// natural coefficient order (different code path from
			// arExtensionError's reversed walk).
			p := tr.Order()
			ext := make([]float64, plan.Len())
			for k := 0; k <= p; k++ {
				ext[k] = plan.ACF(k)
			}
			var worst float64
			for k := p + 1; k < plan.Len(); k++ {
				var s float64
				for j := 1; j <= p; j++ {
					s += tr.row[p-j] * ext[k-j]
				}
				ext[k] = s
				if d := math.Abs(s - plan.ACF(k)); d > worst {
					worst = d
				}
			}
			if math.Abs(worst-tr.MaxACFError()) > 1e-12 {
				t.Fatalf("independent ACF error %v disagrees with reported %v", worst, tr.MaxACFError())
			}
			if worst > tc.acfTol {
				t.Fatalf("independent ACF error %v exceeds tolerance %v", worst, tc.acfTol)
			}
		})
	}
}

// A truncated path agrees bit-for-bit with the exact generator up to (and
// including) the truncation order, and a truncation whose order covers the
// whole requested path IS the exact generator.
func TestTruncatedPrefixBitIdentical(t *testing.T) {
	plan, err := NewPlan(acf.FGN{H: 0.8}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := plan.Truncate(TruncateOptions{Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	exact := plan.Path(rng.New(42), 1024)
	fast := tr.Path(rng.New(42), 1024)
	// One extra step matches too: step p uses the full row p in both modes.
	for k := 0; k <= tr.Order() && k < len(fast); k++ {
		if fast[k] != exact[k] {
			t.Fatalf("prefix diverges at %d (order %d)", k, tr.Order())
		}
	}
	diverged := false
	for k := tr.Order() + 1; k < len(fast); k++ {
		if fast[k] != exact[k] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("fast path never diverged from exact; truncation is a no-op")
	}
}

// The streaming truncated generator must reproduce Truncated.Generate
// bitwise while holding only an O(p) window, including far beyond the plan
// length.
func TestTruncatedGeneratorStreamsBeyondPlan(t *testing.T) {
	plan, err := NewPlan(acf.FGN{H: 0.8}, 512)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := plan.Truncate(TruncateOptions{Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // ~10x the plan length
	batch := tr.Path(rng.New(11), n)
	g := NewTruncatedGenerator(tr, rng.New(11))
	for i := 0; i < n; i++ {
		if x := g.Next(); x != batch[i] {
			t.Fatalf("stream diverges at %d", i)
		}
	}
	if g.Pos() != n {
		t.Fatalf("Pos = %d, want %d", g.Pos(), n)
	}
	g.Reset()
	g2 := NewTruncatedGenerator(tr, rng.New(11))
	// Note: Reset clears the path but not the rng; use a fresh source for
	// the bitwise comparison.
	_ = g
	for i := 0; i < 100; i++ {
		if g2.Next() != batch[i] {
			t.Fatalf("fresh stream diverges at %d", i)
		}
	}
}

// Statistical sanity: the truncated process still matches the target
// autocorrelation at short lags.
func TestTruncatedSampleACF(t *testing.T) {
	if testing.Short() {
		t.Skip("large sample")
	}
	model := acf.FGN{H: 0.8}
	plan, err := NewPlan(model, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := plan.Truncate(TruncateOptions{Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	x := tr.Path(rng.New(3), 200000)
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	var c0 float64
	for _, v := range x {
		c0 += (v - mean) * (v - mean)
	}
	for _, lag := range []int{1, 5, 20} {
		var ck float64
		for i := lag; i < len(x); i++ {
			ck += (x[i] - mean) * (x[i-lag] - mean)
		}
		got := ck / c0
		want := model.At(lag)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("sample ACF at lag %d: got %.4f want %.4f", lag, got, want)
		}
	}
}

func TestTruncateRejectsImpossibleTolerance(t *testing.T) {
	plan, err := NewPlan(acf.FGN{H: 0.95}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Truncate(TruncateOptions{Tol: 1e-12}); err == nil {
		t.Fatal("expected ErrNoTruncation for absurd tolerance on a short plan")
	}
}

// Cache: same model+length returns the identical plan pointer; distinct
// models or lengths do not; concurrent first requests build once.
func TestPlanCacheHitsAndSingleflight(t *testing.T) {
	c := NewPlanCache(8)
	modelA := acf.FGN{H: 0.8}
	p1, err := c.Get(modelA, 300)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(modelA, 300)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cache miss on identical (model, length)")
	}
	p3, err := c.Get(modelA, 301)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different length returned same plan")
	}
	p4, err := c.Get(acf.FGN{H: 0.7}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("different model returned same plan")
	}
	// Two models that agree on the evaluated table share a plan.
	p5, err := c.Get(sliceModel(acf.Table(modelA, 299)), 300)
	if err != nil {
		t.Fatal(err)
	}
	if p5 != p1 {
		t.Fatal("table-equal model missed the cache")
	}

	// Singleflight: many goroutines racing on a cold key get one plan.
	c2 := NewPlanCache(8)
	var wg sync.WaitGroup
	plans := make([]*Plan, 16)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c2.Get(acf.FGN{H: 0.85}, 400)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(plans); i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent gets returned distinct plans")
		}
	}
}

// countingModel counts ACF evaluations; its pointer type is comparable, so
// repeat Gets must go through the identity fast path without re-evaluating.
type countingModel struct {
	base  acf.Model
	calls int
}

func (m *countingModel) At(k int) float64 {
	m.calls++
	return m.base.At(k)
}

func TestPlanCacheIdentityFastPath(t *testing.T) {
	c := NewPlanCache(8)
	m := &countingModel{base: acf.FGN{H: 0.8}}
	const n = 128
	p1, err := c.Get(m, n)
	if err != nil {
		t.Fatal(err)
	}
	if m.calls != n {
		t.Fatalf("cold Get evaluated the model %d times, want %d", m.calls, n)
	}
	p2, err := c.Get(m, n)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatal("identity hit returned a different plan")
	}
	if m.calls != n {
		t.Fatalf("warm Get re-evaluated the model (%d calls, want %d)", m.calls, n)
	}
	// A table-equal but distinct pointer is a new identity: it pays one
	// table evaluation, matches by fingerprint, and shares the plan.
	m2 := &countingModel{base: acf.FGN{H: 0.8}}
	p3, err := c.Get(m2, n)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("table-equal model missed the cache")
	}
	if m2.calls != n {
		t.Fatalf("fingerprint path evaluated %d times, want %d", m2.calls, n)
	}
	// ...and from then on it, too, hits by identity.
	if _, err := c.Get(m2, n); err != nil {
		t.Fatal(err)
	}
	if m2.calls != n {
		t.Fatalf("second Get through recorded identity re-evaluated (%d calls)", m2.calls)
	}
}

// wrapModel has a comparable struct type but may hold an unhashable dynamic
// value in its interface field. Hashing it as a map key would panic, and its
// canonical encoding cannot record the interface's dynamic type, so it must
// take neither identity path and be matched by content.
type wrapModel struct{ inner acf.Model }

func (w wrapModel) At(k int) float64 { return w.inner.At(k) }

func TestPlanCacheUnhashableModel(t *testing.T) {
	c := NewPlanCache(8)
	m := wrapModel{inner: sliceModel(acf.Table(acf.FGN{H: 0.8}, 99))}
	p1, err := c.Get(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("unhashable model missed the fingerprint cache")
	}
}

func TestPlanCacheEviction(t *testing.T) {
	c := NewPlanCache(2)
	a, _ := c.Get(acf.FGN{H: 0.6}, 100)
	c.Get(acf.FGN{H: 0.7}, 100)
	c.Get(acf.FGN{H: 0.8}, 100) // evicts the LRU entry (H=0.6)
	if got := c.Len(); got != 2 {
		t.Fatalf("cache holds %d entries, cap 2", got)
	}
	a2, _ := c.Get(acf.FGN{H: 0.6}, 100)
	if a2 == a {
		t.Fatal("evicted entry still returned the old pointer")
	}
}

func TestPlanCacheErrorNotCached(t *testing.T) {
	c := NewPlanCache(4)
	bad := acf.PaperComposite() // raw composite is not positive definite
	if _, err := c.Get(bad, 200); err == nil {
		t.Fatal("expected non-PD error")
	}
	if c.Len() != 0 {
		t.Fatal("failed build left an entry behind")
	}
}
