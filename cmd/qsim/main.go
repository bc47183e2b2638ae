// Command qsim simulates the ATM multiplexer of Section 4: a slotted
// single-server queue fed by the unified VBR video model, with either plain
// Monte Carlo or importance-sampling (fast simulation) estimation of the
// buffer-overflow probability P(Q_k > b).
//
// Usage:
//
//	qsim -i trace.csv -util 0.6 -buffer 100 -horizon 1000 -twist 1.6
//	qsim -i trace.csv -util 0.4 -buffer 200 -twist 0      # plain Monte Carlo
//	qsim -i trace.csv -util 0.2 -buffer 25 -search        # find a good twist
//	qsim -i trace.csv -util 0.6 -buffer 100 -trace-driven # drive the queue with the raw trace
//	qsim -i trace.csv -util 0.7 -buffer 100 -sources 8    # multiplex 8 sources
//
// Observability (all determinism-neutral — estimates are bit-identical with
// these on or off):
//
//	qsim ... -progress               # NDJSON convergence snapshots on stderr
//	qsim ... -trace-out run.ndjson   # pipeline stage spans (fit, plan, queue)
//	qsim ... -manifest run.json      # run-manifest artifact (seed, stages, results)
//	qsim ... -cpuprofile cpu.pprof   # pprof CPU profile of the run
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"

	"vbrsim/internal/core"
	"vbrsim/internal/hosking"
	"vbrsim/internal/impsample"
	"vbrsim/internal/obs"
	"vbrsim/internal/queue"
	"vbrsim/internal/stats"
	"vbrsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "qsim:", err)
		os.Exit(1)
	}
}

// run parses flags, sets up observability, and delegates to qsimRun; split
// from main for testability.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("qsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in          = fs.String("i", "", "input trace to fit the model on (csv or bin)")
		frameType   = fs.String("type", "I", "frame type the model is fitted on (I recommended)")
		util        = fs.Float64("util", 0.6, "link utilization in (0,1)")
		bufNorm     = fs.Float64("buffer", 100, "normalized buffer size b (units of mean frame size)")
		horizon     = fs.Int("horizon", 0, "stop time k (0 = 10*buffer, the paper's choice)")
		twist       = fs.Float64("twist", 1.6, "IS background mean shift m* (0 = plain MC on the model)")
		reps        = fs.Int("reps", 1000, "replications")
		seed        = fs.Uint64("seed", 1, "seed")
		search      = fs.Bool("search", false, "sweep twists 0.5..5 and report the normalized-variance valley (Fig. 14)")
		traceDriven = fs.Bool("trace-driven", false, "estimate from the raw trace itself (one long replication)")
		batches     = fs.Int("batches", 0, "with -trace-driven: report a batch-means CI over this many batches")
		sources     = fs.Int("sources", 1, "number of multiplexed sources (plain MC only when > 1)")
		fast        = fs.Bool("fast", false, "use the truncated-AR Hosking fast path (O(p) per step, unbounded horizon); same as synth -backend hosking-fast")

		progress      = fs.Bool("progress", false, "stream estimator convergence snapshots to stderr as NDJSON")
		progressEvery = fs.Int("progress-every", 0, "replications between convergence snapshots (0 = ~32 over the run)")
		traceOut      = fs.String("trace-out", "", "write pipeline stage spans as NDJSON to this file (- for stderr)")
		manifestOut   = fs.String("manifest", "", "write a run-manifest JSON artifact to this file")
		cpuprofile    = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -i input trace")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// The tracer records stage spans for -trace-out and -manifest; when
	// neither is requested it stays nil and every span call is a no-op.
	ctx := context.Background()
	var tracer *obs.Tracer
	if *traceOut != "" || *manifestOut != "" {
		var tw io.Writer
		switch *traceOut {
		case "":
			// collect-only, for the manifest rollup
		case "-":
			tw = stderr
		default:
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := f.Close(); cerr != nil && err == nil {
					err = fmt.Errorf("-trace-out: %w", cerr)
				}
			}()
			tw = f
		}
		tracer = obs.NewTracer(tw)
		ctx = obs.ContextWithTracer(ctx, tracer)
		defer func() {
			if terr := tracer.Err(); terr != nil && err == nil {
				err = fmt.Errorf("-trace-out: %w", terr)
			}
		}()
	}
	var onProgress func(obs.Convergence)
	if *progress {
		onProgress = obs.ProgressWriter(stderr)
	}

	results := map[string]any{}
	err = qsimRun(ctx, stdout, qsimFlags{
		in: *in, frameType: *frameType, util: *util, bufNorm: *bufNorm,
		horizon: *horizon, twist: *twist, reps: *reps, seed: *seed,
		search: *search, traceDriven: *traceDriven,
		batches: *batches, sources: *sources, fast: *fast,
		onProgress: onProgress, progressEvery: *progressEvery,
	}, results)

	if *manifestOut != "" {
		// The shared plan cache is the only process-wide instrument a CLI
		// run touches; expose it so the manifest's metrics section shows
		// cache behaviour for this run.
		hosking.Shared.RegisterMetrics(obs.Default)
		m := tracer.Manifest("qsim", args, int64(*seed), results, obs.Default)
		if werr := obs.WriteManifestFile(*manifestOut, m); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// qsimFlags carries the parsed flag values into the run body.
type qsimFlags struct {
	in, frameType             string
	util, bufNorm, twist      float64
	horizon, reps             int
	seed                      uint64
	search, traceDriven, fast bool
	batches, sources          int
	onProgress                func(obs.Convergence)
	progressEvery             int
}

// qsimRun is the tool body: everything after flag parsing and observability
// setup. It fills results for the run manifest.
func qsimRun(ctx context.Context, stdout io.Writer, f qsimFlags, results map[string]any) error {
	tr, err := trace.ReadFile(f.in)
	if err != nil {
		return err
	}

	if f.traceDriven {
		mean := stats.Mean(tr.Sizes)
		service := mean / f.util
		p, err := queue.TraceOverflow(tr.Sizes, service, f.bufNorm*mean, 1000)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace-driven steady state: P(Q > %g) = %.3g (log10 %.2f)\n",
			f.bufNorm, p, log10(p))
		results["mode"] = "trace-driven"
		results["p"] = p
		if f.batches > 1 {
			ci, err := queue.TraceOverflowCI(tr.Sizes, service, f.bufNorm*mean, 1000, f.batches)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "batch means (%d batches): %.3g +/- %.2g (95%%), batch lag-1 corr %.2f\n",
				ci.Batches, ci.P, ci.HalfWidth95, ci.BatchCorr)
			if ci.BatchCorr > 0.3 {
				fmt.Fprintf(stdout, "warning: batches remain correlated (LRD) — the interval understates the true uncertainty\n")
			}
			results["batch_p"] = ci.P
			results["batch_half_width_95"] = ci.HalfWidth95
			results["batch_corr"] = ci.BatchCorr
		}
		return nil
	}

	sizes := tr.Sizes
	if f.frameType != "" && tr.Types != nil {
		ft, err := trace.ParseFrameType(f.frameType)
		if err != nil {
			return err
		}
		if s := tr.ByType(ft); s != nil {
			sizes = s
		}
	}
	m, err := core.FitCtx(ctx, sizes, core.FitOptions{Seed: f.seed})
	if err != nil {
		return err
	}
	k := f.horizon
	if k <= 0 {
		k = int(10 * f.bufNorm)
	}
	// The fast path takes its truncation from the shared plan cache, which
	// builds it without the O(k^2) exact plan; the exact path needs the plan.
	var (
		plan  *hosking.Plan
		trunc *hosking.Truncated
	)
	if f.fast {
		trunc, err = core.TruncatedPlanForCtx(ctx, m.Background, k, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fast path: truncated AR(%d), max induced ACF error %.3g\n",
			trunc.Order(), trunc.MaxACFError())
	} else if plan, err = m.PlanCtx(ctx, k); err != nil {
		return err
	}

	if f.sources > 1 {
		// Multiplexed sources: plain MC on the superposed arrival process.
		aggMean := float64(f.sources) * m.MeanRate()
		service, err := queue.UtilizationService(aggMean, f.util)
		if err != nil {
			return err
		}
		src := queue.Superposition{
			Base: core.ArrivalSource{Plan: plan, Fast: trunc, Transform: m.Transform},
			N:    f.sources,
		}
		res, err := queue.EstimateOverflowCtx(ctx, src, service, f.bufNorm*aggMean, k,
			queue.MCOptions{Replications: f.reps, Seed: f.seed,
				Progress: f.onProgress, ProgressEvery: f.progressEvery})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d multiplexed sources, util %.2f, normalized buffer %g, k = %d:\n",
			f.sources, f.util, f.bufNorm, k)
		fmt.Fprintf(stdout, "  P(Q_k > b) = %.4g  (log10 %.2f), hits %d/%d\n",
			res.P, log10(res.P), res.Hits, res.Replications)
		results["mode"] = "multiplexed-mc"
		results["sources"] = f.sources
		results["p"] = res.P
		results["hits"] = res.Hits
		results["replications"] = res.Replications
		return nil
	}

	service, err := queue.UtilizationService(m.MeanRate(), f.util)
	if err != nil {
		return err
	}
	bufAbs := f.bufNorm * m.MeanRate()
	cfg := impsample.Config{
		Plan: plan, FastPlan: trunc, Transform: m.Transform,
		Service: service, Buffer: bufAbs, Horizon: k,
		Twist: f.twist, Replications: f.reps, Seed: f.seed,
		Progress: f.onProgress, ProgressEvery: f.progressEvery,
	}

	if f.search {
		twists := []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
		sweep, best, err := impsample.SearchTwist(cfg, twists)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-8s %-12s %-14s %-10s\n", "m*", "P(Q_k>b)", "norm.var", "var.red.")
		for _, r := range sweep {
			fmt.Fprintf(stdout, "%-8.1f %-12.3g %-14.3g %-10.0f\n",
				r.Twist, r.Result.P, r.Result.NormVar, impsample.VarianceReduction(r.Result))
		}
		if best >= 0 {
			fmt.Fprintf(stdout, "valley at m* = %.1f (paper: 3.2 at util 0.2, b 25)\n", sweep[best].Twist)
			results["mode"] = "twist-search"
			results["best_twist"] = sweep[best].Twist
			results["best_p"] = sweep[best].Result.P
		}
		return nil
	}

	res, err := impsample.EstimateCtx(ctx, cfg)
	if err != nil {
		return err
	}
	mode := "importance sampling"
	if cfg.Twist == 0 {
		mode = "plain Monte Carlo"
	}
	fmt.Fprintf(stdout, "%s, util %.2f, normalized buffer %g, k = %d, N = %d:\n",
		strings.ToUpper(mode[:1])+mode[1:], f.util, f.bufNorm, k, res.Replications)
	fmt.Fprintf(stdout, "  P(Q_k > b) = %.4g  (log10 %.2f)\n", res.P, log10(res.P))
	fmt.Fprintf(stdout, "  std err %.3g, hits %d, normalized variance %.3g\n", res.StdErr, res.Hits, res.NormVar)
	if cfg.Twist != 0 {
		fmt.Fprintf(stdout, "  variance reduction vs plain MC: %.0fx\n", impsample.VarianceReduction(res))
	}
	results["mode"] = mode
	results["p"] = res.P
	results["std_err"] = res.StdErr
	results["hits"] = res.Hits
	results["norm_var"] = res.NormVar
	results["replications"] = res.Replications
	return nil
}

func log10(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log10(p)
}
