// Command experiments regenerates every table and figure of the paper's
// evaluation (Table 1, Figs. 1-17), printing the key findings and writing
// one gnuplot-ready .dat file per exhibit.
//
// Usage:
//
//	experiments -out data/                  # full suite at default scale
//	experiments -quick -out data/           # reduced sweeps
//	experiments -only fig16,fig17 -out data # a subset
//	experiments -frames 238626              # the paper's full trace length
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vbrsim/internal/experiments"
	"vbrsim/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the tool; split from main for testability.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "experiment-data", "output directory for .dat files")
		quick    = fs.Bool("quick", false, "reduced sweeps (for smoke testing)")
		frames   = fs.Int("frames", 0, "synthetic empirical trace length (0 = default; paper: 238626)")
		seed     = fs.Uint64("seed", 1995, "master seed")
		reps     = fs.Int("reps", 0, "Monte-Carlo/IS replications (0 = default 1000)")
		only     = fs.String("only", "", "comma-separated exhibit ids (default: all)")
		fast     = fs.Bool("fast", false, "use the truncated-AR Hosking fast path (O(p) per step, unbounded horizon); same as synth -backend hosking-fast")
		progress = fs.Bool("progress", false, "stream per-exhibit spans to stderr as NDJSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// With -progress each exhibit becomes a streamed span (wall time,
	// allocations) so long suites can be watched converge exhibit by
	// exhibit; without it the tracer is nil and the spans are no-ops.
	var tracer *obs.Tracer
	if *progress {
		tracer = obs.NewTracer(stderr)
	}

	lab := experiments.NewLab(experiments.Config{
		TraceFrames:  *frames,
		Seed:         *seed,
		Replications: *reps,
		Quick:        *quick,
		FastPath:     *fast,
	})

	ids := lab.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		span := tracer.Start("exhibit." + id)
		res, err := lab.Run(id)
		if err != nil {
			span.End(map[string]any{"error": err.Error()})
			return fmt.Errorf("%s: %w", id, err)
		}
		span.End(map[string]any{"title": res.Title})
		fmt.Fprintf(stdout, "=== %s: %s (%.1fs)\n", res.ID, res.Title, time.Since(start).Seconds())
		for _, n := range res.Notes {
			fmt.Fprintf(stdout, "    %s\n", n)
		}
		path := filepath.Join(*out, res.ID+".dat")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := res.WriteData(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "    data -> %s\n", path)
	}
	return nil
}
