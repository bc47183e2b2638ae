package hosking

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/rng"
)

// Plan-layout, fast-path, parallel-build and plan-cache ablations. Each
// pair (or cold/warm, serial/parallel duo) is meant to be read as a ratio:
//
//	go test ./internal/hosking -run '^$' -bench 'PlanPath|Path20000|NewPlan(Serial|Parallel)|PlanCache'
//
// Fixtures (the exact n=20000 plan is ~1.6 GB and takes seconds to build)
// are created lazily and shared across benchmarks via sync.Once.

// benchModel is the fixture background process: FGN with H = 0.8, a
// long-range dependent model squarely in the paper's regime where the
// truncated-AR approximation is hardest (power-law ACF tail).
var benchModel = acf.FGN{H: 0.8}

const (
	flatRaggedLen = 4096
	fastPathLen   = 20000
	parallelLen   = 12288
	cacheLen      = 1024

	// fastACFTol is the enforced absolute ACF-error budget for the
	// truncated-AR fixture; Truncate fails (and the benchmark aborts) if
	// the frozen AR order cannot hold it over the full plan window.
	fastACFTol = 0.02
)

var (
	flatOnce sync.Once
	flatPlan *Plan
	flatErr  error

	raggedOnce sync.Once
	raggedPlan *RaggedPlan
	raggedErr  error

	bigOnce   sync.Once
	bigPlan   *Plan
	truncated *Truncated
	bigErr    error
)

func getFlatPlan(b *testing.B) *Plan {
	flatOnce.Do(func() { flatPlan, flatErr = NewPlan(benchModel, flatRaggedLen) })
	if flatErr != nil {
		b.Fatal(flatErr)
	}
	return flatPlan
}

func getRaggedPlan(b *testing.B) *RaggedPlan {
	raggedOnce.Do(func() { raggedPlan, raggedErr = NewRaggedPlan(benchModel, flatRaggedLen) })
	if raggedErr != nil {
		b.Fatal(raggedErr)
	}
	return raggedPlan
}

func getBigPlan(b *testing.B) (*Plan, *Truncated) {
	bigOnce.Do(func() {
		bigPlan, bigErr = NewPlan(benchModel, fastPathLen)
		if bigErr != nil {
			return
		}
		truncated, bigErr = bigPlan.Truncate(TruncateOptions{ACFTol: fastACFTol})
		if bigErr != nil {
			return
		}
		if e := truncated.MaxACFError(); e > fastACFTol {
			bigErr = fmt.Errorf("hosking: truncated plan ACF error %g exceeds budget %g", e, fastACFTol)
		}
	})
	if bigErr != nil {
		b.Fatal(bigErr)
	}
	return bigPlan, truncated
}

// BenchmarkFlatPlanPath generates full paths through the flat (single
// allocation, reversed rows, unit-stride CondMean) plan layout.
func BenchmarkFlatPlanPath(b *testing.B) {
	plan := getFlatPlan(b)
	r := rng.New(1)
	out := make([]float64, flatRaggedLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Generate(r, out)
	}
}

// BenchmarkRaggedPlanPath generates the same paths through the seed's
// ragged [][]float64 layout (the pre-refactor baseline, kept as a reference
// implementation). Bit-identical output; the difference is pure memory
// layout.
func BenchmarkRaggedPlanPath(b *testing.B) {
	plan := getRaggedPlan(b)
	r := rng.New(1)
	out := make([]float64, flatRaggedLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Generate(r, out)
	}
}

// BenchmarkExactPath20000 is the exact O(n^2) Hosking generation baseline
// at paper-overflow scale.
func BenchmarkExactPath20000(b *testing.B) {
	plan, _ := getBigPlan(b)
	r := rng.New(1)
	out := make([]float64, fastPathLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Generate(r, out)
	}
}

// BenchmarkTruncatedPath20000 generates the same-length paths through the
// truncated AR(p) fast path (exact below the frozen order, O(p) per step
// above it), with the induced ACF error bounded by fastACFTol.
func BenchmarkTruncatedPath20000(b *testing.B) {
	_, tr := getBigPlan(b)
	r := rng.New(1)
	out := make([]float64, fastPathLen)
	b.ReportMetric(float64(tr.Order()), "ar-order")
	b.ReportMetric(tr.MaxACFError(), "acf-err")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Generate(r, out)
	}
}

// BenchmarkNewPlanSerial builds the Durbin-Levinson plan single-threaded.
func BenchmarkNewPlanSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewPlanOpts(benchModel, parallelLen, PlanOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewPlanParallel builds the same plan with the chunked parallel
// recursion across GOMAXPROCS workers (bit-identical output).
func BenchmarkNewPlanParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		if _, err := NewPlanOpts(benchModel, parallelLen, PlanOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheCold measures a cache miss: every iteration purges the
// cache and pays the full Durbin-Levinson build.
func BenchmarkPlanCacheCold(b *testing.B) {
	cache := NewPlanCache(DefaultCacheCap)
	for i := 0; i < b.N; i++ {
		cache.Purge()
		if _, err := cache.Get(benchModel, cacheLen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheWarm measures a cache hit: fingerprint the ACF table
// and return the shared plan.
func BenchmarkPlanCacheWarm(b *testing.B) {
	cache := NewPlanCache(DefaultCacheCap)
	if _, err := cache.Get(benchModel, cacheLen); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Get(benchModel, cacheLen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTruncateCold compares the two ways to the truncation a served
// spec runs on at the served plan length (4096): scan is the two-pass build
// a truncation cache miss runs, plan the full plan and its truncation.
// Read the ratio, and B/op: the plan side allocates the 64 MiB triangle.
//
//	go test ./internal/hosking -run '^$' -bench TruncateCold -benchmem
func BenchmarkTruncateCold(b *testing.B) {
	const n = 4096
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scanTruncate(context.Background(), benchModel, n, TruncateOptions{}.withDefaults()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := NewPlan(benchModel, n)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Truncate(TruncateOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
