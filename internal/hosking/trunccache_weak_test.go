//go:build go1.24

package hosking

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"vbrsim/internal/acf"
)

// TestTruncatedCachePurgeCollects checks Purge really drops a truncation:
// with the caller's reference gone it is collected, and with it everything
// memoized on it through Derived.
func TestTruncatedCachePurgeCollects(t *testing.T) {
	c := NewPlanCache(4)
	tr, err := c.TruncatedCtx(context.Background(), acf.FGN{H: 0.8}, 1024, TruncateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type key struct{}
	derived, err := tr.Derived(key{}, func() (any, error) { return new([64]float64), nil })
	if err != nil {
		t.Fatal(err)
	}
	wt, wd := weak.Make(tr), weak.Make(derived.(*[64]float64))
	tr, derived = nil, nil
	runtime.GC()
	if wt.Value() == nil {
		t.Fatal("a cached truncation was collected before Purge")
	}
	c.Purge()
	runtime.GC()
	runtime.GC()
	if wt.Value() != nil || wd.Value() != nil {
		t.Fatal("Purge left the truncation or its derived state reachable")
	}
}
