// Command tracegen generates a synthetic empirical-style MPEG-1 VBR video
// trace (the stand-in for the paper's "Last Action Hero" record) and writes
// it to a file: binary when the name ends in .bin, CSV otherwise.
//
// Usage:
//
//	tracegen -frames 238626 -seed 1 -o trace.csv
//	tracegen -frames 65536 -intra -o intra.bin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run executes the tool; split from main for testability.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		frames  = fs.Int("frames", 1<<17, "number of frames to generate (paper: 238626)")
		seed    = fs.Uint64("seed", 1, "random seed")
		out     = fs.String("o", "trace.csv", "output file (.bin: binary, else CSV)")
		intra   = fs.Bool("intra", false, "intraframe-only encoding (no I/P/B alternation)")
		alpha   = fs.Float64("scene-alpha", 0, "Pareto tail index of scene durations (default 1.2 => H=0.9)")
		summary = fs.Bool("summary", true, "print a Table-1 style summary to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := mpegtrace.Config{Frames: *frames, Seed: *seed, SceneAlpha: *alpha}
	if *intra {
		cfg.GOP = []trace.FrameType{trace.FrameI}
		cfg.IScale, cfg.PScale, cfg.BScale = 1, 1, 1
	}
	tr, err := mpegtrace.Generate(cfg)
	if err != nil {
		return err
	}

	if err := tr.WriteFile(*out); err != nil {
		return err
	}

	if *summary {
		s := tr.Summarize()
		fmt.Fprintf(stderr, "wrote %s: %d frames, %.1f s at %.0f fps, GOP %d\n",
			*out, s.Frames, s.Duration, s.FrameRate, s.GOPLength)
		fmt.Fprintf(stderr, "mean %.0f bytes/frame (%.2f Mbit/s), std %.0f, min %.0f, max %.0f, peak/mean %.2f\n",
			s.MeanBytes, s.MeanBitRate/1e6, s.StdBytes, s.MinBytes, s.MaxBytes, s.PeakToMean)
		fmt.Fprintf(stderr, "frame mix: I=%d P=%d B=%d\n",
			s.TypeCounts[trace.FrameI], s.TypeCounts[trace.FrameP], s.TypeCounts[trace.FrameB])
	}
	return nil
}
