package hosking

import (
	"sync"
	"sync/atomic"
	"testing"

	"vbrsim/internal/acf"
)

// TestDerivedBuildsOnce checks concurrent first requests of one key share a
// single build, and a different key builds its own value.
func TestDerivedBuildsOnce(t *testing.T) {
	plan, err := NewPlan(acf.FGN{H: 0.8}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := plan.Truncate(TruncateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ n int }
	var builds atomic.Int32
	build := func() (any, error) {
		builds.Add(1)
		return new(int), nil
	}
	got := make([]any, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = tr.Derived(key{1}, build)
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatal("callers of one key got different values")
		}
	}
	other, _ := tr.Derived(key{2}, build)
	if other == got[0] || builds.Load() != 2 {
		t.Fatal("a second key did not get its own build")
	}
}
