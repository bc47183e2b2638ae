package queue

import (
	"context"
	"sync"
	"testing"

	"vbrsim/internal/acf"
	"vbrsim/internal/core"
	"vbrsim/internal/dist"
	"vbrsim/internal/hosking"
	"vbrsim/internal/obs"
	"vbrsim/internal/par"
	"vbrsim/internal/transform"
)

// The telemetry tax on a full estimator run: the Off/On pair keeps
// everything but the instrumentation identical, so their ratio is the
// observability overhead on a real hot path.

const (
	obsMCLen  = 1024 // queue horizon for the telemetry ablation
	obsMCReps = 128  // replications per op
)

var (
	obsOnce sync.Once
	obsSrc  core.ArrivalSource
	obsSvc  float64
	obsBuf  float64
	obsErr  error
)

// getObsSource builds the telemetry-ablation fixture: a truncated-AR
// arrival source over FGN(H = 0.8) (the same configuration qsim -fast
// runs), sized so one op is a complete small estimation run.
func getObsSource(b *testing.B) (core.ArrivalSource, float64, float64) {
	obsOnce.Do(func() {
		var plan *hosking.Plan
		plan, obsErr = hosking.NewPlan(acf.FGN{H: 0.8}, obsMCLen)
		if obsErr != nil {
			return
		}
		var trunc *hosking.Truncated
		trunc, obsErr = plan.Truncate(hosking.TruncateOptions{ACFTol: 0.02})
		if obsErr != nil {
			return
		}
		tr := transform.New(dist.Lognormal{Mu: 9.6, Sigma: 0.4})
		obsSrc = core.ArrivalSource{Plan: plan, Fast: trunc, Transform: tr}
		mean := tr.Target.Mean()
		obsSvc = mean / 0.9
		obsBuf = 30 * mean
	})
	if obsErr != nil {
		b.Fatal(obsErr)
	}
	return obsSrc, obsSvc, obsBuf
}

// BenchmarkQueueMCTelemetryOff runs a complete small MC estimation with no
// telemetry.
func BenchmarkQueueMCTelemetryOff(b *testing.B) {
	src, svc, buf := getObsSource(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateOverflow(src, svc, buf, obsMCLen,
			MCOptions{Replications: obsMCReps, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueMCTelemetryOn runs the identical estimation with every
// telemetry hook live: a traced context (queue.mc span), a convergence
// meter snapshotting every 16 replications, and a worker-pool observer.
func BenchmarkQueueMCTelemetryOn(b *testing.B) {
	src, svc, buf := getObsSource(b)
	par.SetObserver(func(par.RunStats) {})
	defer par.SetObserver(nil)
	sink := func(obs.Convergence) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := obs.ContextWithTracer(context.Background(), obs.NewTracer(nil))
		if _, err := EstimateOverflowCtx(ctx, src, svc, buf, obsMCLen,
			MCOptions{Replications: obsMCReps, Seed: uint64(i + 1),
				Progress: sink, ProgressEvery: 16}); err != nil {
			b.Fatal(err)
		}
	}
}
