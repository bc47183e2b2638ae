// Benchmarks that regenerate every table and figure of the paper (in Quick
// mode so a full -bench=. run completes in minutes), plus ablation benches
// for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package vbrsim

import (
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/experiments"
	"vbrsim/internal/hosking"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
)

// benchLab is shared across benchmarks so the expensive artifacts (traces,
// fitted models) are built once.
var benchLab = experiments.NewLab(experiments.Config{Quick: true, Seed: 2024})

// runExhibit benches one exhibit end to end.
func runExhibit(b *testing.B, id string) {
	b.Helper()
	// Warm the caches outside the timed region.
	if _, err := benchLab.Run(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchLab.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1TraceGen(b *testing.B)        { runExhibit(b, "table1") }
func BenchmarkFig01Histogram(b *testing.B)        { runExhibit(b, "fig1") }
func BenchmarkFig02Transform(b *testing.B)        { runExhibit(b, "fig2") }
func BenchmarkFig03VarianceTime(b *testing.B)     { runExhibit(b, "fig3") }
func BenchmarkFig04RS(b *testing.B)               { runExhibit(b, "fig4") }
func BenchmarkFig05ACF(b *testing.B)              { runExhibit(b, "fig5") }
func BenchmarkFig06ACFFit(b *testing.B)           { runExhibit(b, "fig6") }
func BenchmarkFig07Attenuation(b *testing.B)      { runExhibit(b, "fig7") }
func BenchmarkFig08FinalACF(b *testing.B)         { runExhibit(b, "fig8") }
func BenchmarkFig09to11CompositeACF(b *testing.B) { runExhibit(b, "fig9to11") }
func BenchmarkFig12HistogramCompare(b *testing.B) { runExhibit(b, "fig12") }
func BenchmarkFig13QQ(b *testing.B)               { runExhibit(b, "fig13") }
func BenchmarkFig14TwistSearch(b *testing.B)      { runExhibit(b, "fig14") }
func BenchmarkFig15Transient(b *testing.B)        { runExhibit(b, "fig15") }
func BenchmarkFig16OverflowVsBuffer(b *testing.B) { runExhibit(b, "fig16") }
func BenchmarkFig17ModelComparison(b *testing.B)  { runExhibit(b, "fig17") }

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md Section 5)

// BenchmarkAblationHoskingVsDaviesHarte compares the two exact generators at
// the same path length.
func BenchmarkAblationHoskingVsDaviesHarte(b *testing.B) {
	model := acf.PaperComposite().Continuous()
	const n = 2048
	b.Run("hosking", func(b *testing.B) {
		plan, err := hosking.NewPlan(model, n)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.Path(r, n)
		}
	})
	b.Run("daviesharte", func(b *testing.B) {
		plan, err := daviesharte.NewPlan(model, n, daviesharte.Options{AllowApprox: true})
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.Path(r)
		}
	})
}

// BenchmarkAblationPlanReuse quantifies the saving from sharing one
// Durbin-Levinson plan across replications instead of rebuilding it.
func BenchmarkAblationPlanReuse(b *testing.B) {
	model := acf.PaperComposite().Continuous()
	const n = 512
	b.Run("shared-plan", func(b *testing.B) {
		plan, err := hosking.NewPlan(model, n)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.Path(r, n)
		}
	})
	b.Run("rebuild-per-replication", func(b *testing.B) {
		r := rng.New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := hosking.NewPlan(model, n)
			if err != nil {
				b.Fatal(err)
			}
			plan.Path(r, n)
		}
	})
}

// BenchmarkAblationAttenuation measures the ACF error at large lags with
// and without Step-4 compensation, reporting the error as a custom metric.
func BenchmarkAblationAttenuation(b *testing.B) {
	m, err := benchLab.IModel()
	if err != nil {
		b.Fatal(err)
	}
	const pathLen, reps, lag = 600, 10, 150
	measure := func(bg acf.Model) float64 {
		plan, err := hosking.NewPlan(bg, pathLen)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(7)
		var y0, yk float64
		for rep := 0; rep < reps; rep++ {
			y := m.Transform.ApplySlice(plan.Path(r, pathLen))
			a := stats.AutocovarianceKnownMean(y, m.Marginal.Mean(), lag)
			y0 += a[0]
			yk += a[lag]
		}
		got := yk / y0
		want := m.Foreground.At(lag)
		if got > want {
			return got - want
		}
		return want - got
	}
	b.Run("compensated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(measure(m.Background), "acf-err")
		}
	})
	b.Run("uncompensated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(measure(m.Foreground), "acf-err")
		}
	})
}

// BenchmarkAblationCompositeVsSingle compares the Section-3.3 composite
// (per-type transforms) against a single-transform model of the same GOP
// traffic, reporting the per-type mean error of the single model.
func BenchmarkAblationCompositeVsSingle(b *testing.B) {
	tr, err := benchLab.InterTrace()
	if err != nil {
		b.Fatal(err)
	}
	g, err := benchLab.GOPModel()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("composite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			syn, err := g.Generate(4096, uint64(i), BackendDaviesHarte)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(typeMeanError(tr, syn), "type-mean-err")
		}
	})
	b.Run("single-transform", func(b *testing.B) {
		m, err := Fit(tr.Sizes[:1<<14], FitOptions{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sizes, err := m.Generate(4096, uint64(i), BackendDaviesHarte)
			if err != nil {
				b.Fatal(err)
			}
			syn := &Trace{Sizes: sizes, Types: tr.Types[:4096], GOPLength: tr.GOPLength}
			b.ReportMetric(typeMeanError(tr, syn), "type-mean-err")
		}
	})
}

// typeMeanError sums the relative per-frame-type mean errors between traces.
func typeMeanError(ref, syn *Trace) float64 {
	var total float64
	for _, ft := range []FrameType{FrameI, FrameP, FrameB} {
		want := stats.Mean(ref.ByType(ft))
		got := stats.Mean(syn.ByType(ft))
		if want > 0 {
			d := (got - want) / want
			if d < 0 {
				d = -d
			}
			total += d
		}
	}
	return total
}
