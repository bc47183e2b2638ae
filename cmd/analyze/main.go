// Command analyze computes the statistics of a VBR video trace that the
// paper's Figs. 1 and 3-5 report: the bytes-per-frame histogram, the
// variance-time plot, the R/S pox diagram (with Hurst estimates), and the
// autocorrelation function.
//
// Usage:
//
//	analyze -i trace.csv -acf-lags 500 -out-prefix analysis
//	analyze -i trace.bin -type I          # analyze only the I-frame process
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vbrsim/internal/hurst"
	"vbrsim/internal/stats"
	"vbrsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

// run executes the tool; split from main for testability.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("i", "", "input trace (csv or bin, by extension)")
		frameType = fs.String("type", "", "restrict to one frame type: I, P or B")
		acfLags   = fs.Int("acf-lags", 500, "autocorrelation lags to report")
		bins      = fs.Int("bins", 100, "histogram bins")
		whittle   = fs.Bool("whittle", false, "also report the local Whittle Hurst estimate")
		prefix    = fs.String("out-prefix", "", "write <prefix>-{hist,vt,rs,acf}.dat files; empty prints summary only")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -i input trace")
	}
	tr, err := trace.ReadFile(*in)
	if err != nil {
		return err
	}
	sizes := tr.Sizes
	if *frameType != "" {
		ft, err := trace.ParseFrameType(*frameType)
		if err != nil {
			return err
		}
		sizes = tr.ByType(ft)
		if sizes == nil {
			return fmt.Errorf("trace carries no frame-type information")
		}
	}

	mean, _ := stats.MeanVar(sizes)
	fmt.Fprintf(stdout, "frames analyzed: %d\n", len(sizes))
	fmt.Fprintf(stdout, "mean %.1f bytes, std %.1f, skewness %.2f\n", mean, stats.StdDev(sizes), stats.Skewness(sizes))

	vt, errVT := hurst.VarianceTime(sizes, hurst.VarianceTimeOptions{})
	if errVT == nil {
		fmt.Fprintf(stdout, "variance-time: slope %.4f  H = %.3f  (R2 %.3f)\n", vt.Slope, vt.H, vt.R2)
	} else {
		fmt.Fprintf(stdout, "variance-time: %v\n", errVT)
	}
	rs, errRS := hurst.RS(sizes, hurst.RSOptions{})
	if errRS == nil {
		fmt.Fprintf(stdout, "R/S analysis:  slope %.4f  H = %.3f  (R2 %.3f)\n", rs.Slope, rs.H, rs.R2)
	} else {
		fmt.Fprintf(stdout, "R/S analysis: %v\n", errRS)
	}
	if errVT == nil && errRS == nil {
		fmt.Fprintf(stdout, "combined H = %.3f (paper's trace: 0.89/0.92 -> 0.9)\n", (vt.H+rs.H)/2)
	}
	if *whittle {
		if lw, err := hurst.LocalWhittle(sizes, hurst.LocalWhittleOptions{}); err == nil {
			fmt.Fprintf(stdout, "local Whittle: H = %.3f\n", lw.H)
		} else {
			fmt.Fprintf(stdout, "local Whittle: %v\n", err)
		}
	}

	acf := stats.Autocorrelation(sizes, *acfLags)
	fmt.Fprintf(stdout, "acf[1] = %.3f, acf[100] = %.3f, acf[%d] = %.3f\n",
		acf[1], at(acf, 100), *acfLags, at(acf, *acfLags))

	if *prefix == "" {
		return nil
	}
	hi := stats.Max(sizes) * 1.001
	h := stats.NewHistogram(sizes, 0, hi, *bins)
	if err := trace.WriteDat(*prefix+"-hist.dat", stderr, func(f io.Writer) {
		freqs := h.Frequencies()
		for i := range freqs {
			fmt.Fprintf(f, "%g\t%g\n", h.BinCenter(i), freqs[i])
		}
	}); err != nil {
		return err
	}
	if errVT == nil {
		if err := trace.WriteDat(*prefix+"-vt.dat", stderr, func(f io.Writer) {
			for i := range vt.X {
				fmt.Fprintf(f, "%g\t%g\t%g\n", vt.X[i], vt.Y[i], vt.Slope*vt.X[i]+vt.Intercept)
			}
		}); err != nil {
			return err
		}
	}
	if errRS == nil {
		if err := trace.WriteDat(*prefix+"-rs.dat", stderr, func(f io.Writer) {
			for i := range rs.X {
				fmt.Fprintf(f, "%g\t%g\t%g\n", rs.X[i], rs.Y[i], rs.Slope*rs.X[i]+rs.Intercept)
			}
		}); err != nil {
			return err
		}
	}
	return trace.WriteDat(*prefix+"-acf.dat", stderr, func(f io.Writer) {
		for k := 1; k < len(acf); k++ {
			fmt.Fprintf(f, "%d\t%g\n", k, acf[k])
		}
	})
}

func at(a []float64, k int) float64 {
	if k < len(a) {
		return a[k]
	}
	return 0
}
