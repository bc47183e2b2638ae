package hosking

import (
	"math"
	"sync/atomic"
	"testing"

	"vbrsim/internal/acf"
)

// compositeCalls counts countedComposite evaluations. It is package-level
// because the model must stay a plain slice-carrying value: a counter
// pointer inside it would take it off the encoded identity path.
var compositeCalls atomic.Int64

type countedComposite struct{ acf.Composite }

func (c countedComposite) At(k int) float64 {
	compositeCalls.Add(1)
	return c.Composite.At(k)
}

// pdComposite is the paper's composite made continuous and convex, so its
// plans build (the raw paper composite is not positive definite).
func pdComposite(t *testing.T) acf.Composite {
	t.Helper()
	c, err := acf.PaperComposite().Continuous().EnsureConvex()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cloneComposite(c acf.Composite) acf.Composite {
	c.Weights = append([]float64(nil), c.Weights...)
	c.Rates = append([]float64(nil), c.Rates...)
	return c
}

// TestPlanCacheCompositeIdentity pins the encoded identity fast path: a warm
// Get with a composite carrying freshly allocated but equal slices evaluates
// the model zero times, while a composite differing in one bit is a new
// identity that pays its own evaluation.
func TestPlanCacheCompositeIdentity(t *testing.T) {
	c := NewPlanCache(8)
	base := pdComposite(t)
	const n = 256
	start := compositeCalls.Load()
	p1, err := c.Get(countedComposite{cloneComposite(base)}, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := compositeCalls.Load() - start; got != n {
		t.Fatalf("cold Get evaluated the composite %d times, want %d", got, n)
	}
	before := c.Stats()
	p2, err := c.Get(countedComposite{cloneComposite(base)}, n)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatal("warm composite Get returned a different plan")
	}
	if got := compositeCalls.Load() - start; got != n {
		t.Fatalf("warm composite Get evaluated the model (%d calls total, want %d)", got, n)
	}
	if after := c.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("warm composite Get: hits %d -> %d, want one more", before.Hits, after.Hits)
	}

	other := cloneComposite(base)
	other.L = math.Nextafter(other.L, 2)
	if _, err := c.Get(countedComposite{other}, n); err != nil {
		t.Fatal(err)
	}
	if got := compositeCalls.Load() - start; got != 2*n {
		t.Fatalf("composite one ulp away was served by identity (%d calls total, want %d)", got, 2*n)
	}
}

func TestModelIdentity(t *testing.T) {
	comp := acf.Composite{Weights: []float64{1}, Rates: []float64{0.1}, L: 1, Beta: 0.2, Knee: 10}
	key := func(m acf.Model) (identKey, bool) { return modelIdentity(m, 100) }

	k1, ok1 := key(comp)
	k2, ok2 := key(cloneComposite(comp))
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatal("equal composites with distinct slices must share an identity")
	}
	if k, _ := modelIdentity(comp, 101); k == k1 {
		t.Fatal("plan length is not part of the identity")
	}
	if k, ok := key(countedComposite{comp}); !ok || k == k1 {
		t.Fatal("the dynamic type is not part of the identity")
	}
	empty, emptyOK := key(acf.Composite{Weights: []float64{}, Rates: []float64{}})
	null, nullOK := key(acf.Composite{})
	if !emptyOK || !nullOK || empty == null {
		t.Fatal("nil and empty slices must encode apart")
	}
	negZero, posZero := comp, comp
	negZero.Beta, posZero.Beta = math.Copysign(0, -1), 0
	kn, _ := key(negZero)
	kp, _ := key(posZero)
	if kn == kp {
		t.Fatal("-0 and +0 must encode apart (the encoding is bit-exact)")
	}
	if k, ok := key(acf.FGN{H: 0.8}); !ok || k.model == nil {
		t.Fatal("hashable models key by value")
	}
	for name, m := range map[string]acf.Model{
		"nested interface":   wrapModel{inner: sliceModel{0, 0.5}},
		"pointer with slice": pointerSliceModel{sliceModel: sliceModel{0, 0.5}},
		"oversized":          sliceModel(make([]float64, maxIdentEncoding)),
		"nil":                nil,
	} {
		if _, ok := key(m); ok {
			t.Fatalf("%s: got an identity, want content matching", name)
		}
	}
}

// pointerSliceModel carries a slice (so it is not hashable) next to a
// pointer whose target the canonical encoding cannot pin.
type pointerSliceModel struct {
	sliceModel
	p *int
}
