package hosking

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vbrsim/internal/acf"
)

// Truncation entries share the plan entries' machinery; these tests mirror
// cachestats_test.go and fastpath_test.go for them.

// TestTruncatedCacheHitsShareOneTruncation checks repeat and concurrent
// truncation lookups return one *Truncated, bit-identical to truncating the
// plan directly, and that a truncation entry neither is nor pins the plan.
func TestTruncatedCacheHitsShareOneTruncation(t *testing.T) {
	c := NewPlanCache(4)
	model := acf.FGN{H: 0.8}
	const n = 1024
	got := make([]*Truncated, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := c.TruncatedCtx(context.Background(), model, n, TruncateOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = tr
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatal("concurrent truncation lookups returned distinct truncations")
		}
	}
	// Explicit defaults key the same entry; a content-equal model hits it.
	if tr, _ := c.TruncatedCtx(context.Background(), sliceModel(acf.Table(model, n-1)), n, TruncateOptions{Tol: 1e-3, Run: 32}); tr != got[0] {
		t.Fatal("defaulted options or a table-equal model missed the truncation entry")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != uint64(len(got)) {
		t.Fatalf("stats %+v, want 1 miss and %d hits", s, len(got))
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want only the truncation", c.Len())
	}

	plan, err := NewPlan(model, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Truncate(TruncateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := got[0]
	if tr.Order() != want.Order() || tr.MaxACFError() != want.MaxACFError() {
		t.Fatalf("cached truncation AR(%d) err %g, direct AR(%d) err %g",
			tr.Order(), tr.MaxACFError(), want.Order(), want.MaxACFError())
	}
	if tr.head.Len() != tr.Order()+1 {
		t.Fatalf("truncation keeps a %d-step plan, want only its %d-step prefix", tr.head.Len(), tr.Order()+1)
	}
	for k := 0; k < 2*tr.Order(); k++ {
		if tr.CondVar(k) != want.CondVar(k) || tr.PhiRowSum(k) != want.PhiRowSum(k) {
			t.Fatalf("step %d: conditional law differs from the direct truncation", k)
		}
	}
}

// A canceled truncation build must not poison the cache: the failed entry
// is dropped and a later caller with a live context builds it normally.
func TestTruncatedCacheCanceledThenRecovers(t *testing.T) {
	c := NewPlanCache(4)
	model := acf.FGN{H: 0.8}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.TruncatedCtx(ctx, model, 1024, TruncateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatal("a canceled build left an entry behind")
	}
	tr, err := c.TruncatedCtx(context.Background(), model, 1024, TruncateOptions{})
	if err != nil {
		t.Fatalf("recovery lookup: %v", err)
	}
	if tr == nil || tr.Order() < 1 {
		t.Fatal("recovery lookup returned a bad truncation")
	}
}

// A waiter canceled while a truncation build is in flight is not a hit.
func TestTruncatedCacheCanceledWaiterNotCountedAsHit(t *testing.T) {
	c := NewPlanCache(4)
	model := acf.FGN{H: 0.85}
	const n = 4096 // several ms of Durbin-Levinson, plenty to land in-flight
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.TruncatedCtx(context.Background(), model, n, TruncateOptions{}); err != nil {
			t.Error(err)
		}
	}()
	for c.Len() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.TruncatedCtx(ctx, model, n, TruncateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	wg.Wait()
	if s := c.Stats(); s.Hits != 0 {
		t.Fatalf("stats %+v: canceled waiter must not count as a hit", s)
	}
	if _, err := c.TruncatedCtx(context.Background(), model, n, TruncateOptions{}); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("stats %+v: want exactly the post-resolve lookup counted", s)
	}
}

// A fingerprint collision on a truncation key builds the requested
// truncation uncached and leaves the occupant in place.
func TestTruncatedCacheFingerprintCollision(t *testing.T) {
	c := NewPlanCache(4)
	const n = 1024
	occupant, err := c.TruncatedCtx(context.Background(), acf.FGN{H: 0.8}, n, TruncateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Force the collision: file the occupant's entry under the key the
	// other model's table hashes to.
	other := acf.FGN{H: 0.7}
	opt := TruncateOptions{}.withDefaults()
	key := func(m acf.Model) cacheKey {
		return cacheKey{fp: fingerprint(acf.Table(m, n-1)), n: n, opt: opt}
	}
	c.mu.Lock()
	c.entries[key(other)] = c.entries[key(acf.FGN{H: 0.8})]
	c.mu.Unlock()
	before := c.Stats()
	got, err := c.TruncatedCtx(context.Background(), other, n, TruncateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got == occupant {
		t.Fatal("a colliding lookup was served the occupant's truncation")
	}
	plan, err := NewPlan(other, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Truncate(TruncateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != want.Order() || got.MaxACFError() != want.MaxACFError() {
		t.Fatalf("collision fallback built AR(%d), want AR(%d)", got.Order(), want.Order())
	}
	if after := c.Stats(); after.Misses != before.Misses+1 || after.Hits != before.Hits {
		t.Fatalf("collision: stats %+v -> %+v, want one more miss and no hit", before, after)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d keys, want the occupant's two: the fallback inserts none", c.Len())
	}
	if again, _ := c.TruncatedCtx(context.Background(), other, n, TruncateOptions{}); again == got {
		t.Fatal("the collision fallback was cached")
	}
	if again, _ := c.TruncatedCtx(context.Background(), acf.FGN{H: 0.8}, n, TruncateOptions{}); again != occupant {
		t.Fatal("the occupant was displaced")
	}
}

// Plans and truncations count against one LRU cap, and the retained-bytes
// gauge falls by exactly the size of what is evicted or purged.
func TestCacheEvictionSpansPlansAndTruncations(t *testing.T) {
	c := NewPlanCache(2)
	ctx := context.Background()
	size := func(get func(*PlanCache)) int64 {
		fresh := NewPlanCache(2)
		get(fresh)
		return fresh.Bytes()
	}
	getPlan := func(c *PlanCache) {
		if _, err := c.GetCtx(ctx, acf.FGN{H: 0.8}, 1024); err != nil {
			t.Fatal(err)
		}
	}
	getTrunc := func(h float64) func(*PlanCache) {
		return func(c *PlanCache) {
			if _, err := c.TruncatedCtx(ctx, acf.FGN{H: h}, 1024, TruncateOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	planSize, truncSize, otherSize := size(getPlan), size(getTrunc(0.8)), size(getTrunc(0.7))
	if planSize != 8*(3*1024+1024*1023/2) {
		t.Fatalf("plan entry size %d B, want its four tables", planSize)
	}
	if truncSize >= planSize/4 {
		t.Fatalf("truncation entry size %d B against the plan's %d B", truncSize, planSize)
	}

	getPlan(c)
	getTrunc(0.8)(c) // same ACF and length as the plan: a separate entry
	if c.Len() != 2 || c.Bytes() != planSize+truncSize {
		t.Fatalf("%d entries retaining %d B, want 2 retaining %d B", c.Len(), c.Bytes(), planSize+truncSize)
	}
	getTrunc(0.7)(c) // evicts the plan, the least recently used entry
	if s := c.Stats(); s.Evictions != 1 || c.Len() != 2 {
		t.Fatalf("stats %+v with %d entries, want 1 eviction and 2 entries", s, c.Len())
	}
	if got, want := c.Bytes(), truncSize+otherSize; got != want {
		t.Fatalf("after evicting the plan the cache retains %d B, want %d B", got, want)
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after Purge: %d entries, %d B", c.Len(), c.Bytes())
	}
}
