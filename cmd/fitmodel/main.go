// Command fitmodel runs the paper's unified modeling pipeline (Section 3)
// on a trace and prints the fitted parameters: Hurst estimates, the
// composite ACF coefficients (eq. 13 analogue), the attenuation factor, and
// the compensated background ACF. With -gop it fits the composite I-B-P
// model of Section 3.3; with -refine it additionally runs the closed-loop
// background search.
//
// Usage:
//
//	fitmodel -i trace.csv            # single-process model on all frames
//	fitmodel -i trace.csv -type I    # model of the I-frame subsequence
//	fitmodel -i trace.csv -gop       # composite I-B-P model
//	fitmodel -i trace.csv -srd 2     # two-exponential SRD head
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vbrsim/internal/core"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/obs"
	"vbrsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fitmodel:", err)
		os.Exit(1)
	}
}

// run executes the tool; split from main for testability.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fitmodel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in          = fs.String("i", "", "input trace (csv or bin, by extension)")
		frameType   = fs.String("type", "", "fit only one frame type: I, P or B")
		gop         = fs.Bool("gop", false, "fit the composite I-B-P model (Section 3.3)")
		knee        = fs.Int("knee", 0, "force the ACF knee lag (0 = detect)")
		freeBeta    = fs.Bool("free-beta", false, "fit the LRD exponent from the ACF tail instead of pinning beta = 2-2H")
		srd         = fs.Int("srd", 1, "number of exponentials in the SRD head (1 or 2)")
		refine      = fs.Bool("refine", false, "run the closed-loop background refinement after fitting")
		seed        = fs.Uint64("seed", 1, "seed for the attenuation measurement")
		transform   = fs.String("transform-out", "", "write the h(x) transform table (Fig. 2) to this file")
		jsonOut     = fs.String("json", "", "write the fitted model as a trafficd-servable spec to this file (- for stdout)")
		manifestOut = fs.String("manifest", "", "write a run-manifest JSON artifact (stage spans, fitted parameters) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -i input trace")
	}
	// With -manifest the fit stages are traced (collect-only) and rolled up
	// with the fitted parameters into a reproducibility artifact.
	ctx := context.Background()
	var tracer *obs.Tracer
	results := map[string]any{}
	if *manifestOut != "" {
		tracer = obs.NewTracer(nil)
		ctx = obs.ContextWithTracer(ctx, tracer)
		defer func() {
			m := tracer.Manifest("fitmodel", args, int64(*seed), results, nil)
			if err := obs.WriteManifestFile(*manifestOut, m); err != nil {
				fmt.Fprintf(stderr, "fitmodel: writing manifest: %v\n", err)
			} else {
				fmt.Fprintf(stderr, "wrote %s\n", *manifestOut)
			}
		}()
	}
	tr, err := trace.ReadFile(*in)
	if err != nil {
		return err
	}
	opt := core.FitOptions{Knee: *knee, FreeBeta: *freeBeta, SRDComponents: *srd, Seed: *seed}

	if *gop {
		g, err := core.FitGOP(tr, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "composite I-B-P model (GOP period %d, pattern %v)\n", g.KI, g.GOP)
		printModel(stdout, g.IModel, "I-frame process")
		fmt.Fprintf(stdout, "P-frame marginal mean: %.1f bytes\n", g.TP.Target.Mean())
		fmt.Fprintf(stdout, "B-frame marginal mean: %.1f bytes\n", g.TB.Target.Mean())
		fmt.Fprintf(stdout, "composite mean rate: %.1f bytes/frame\n", g.MeanRate())
		results["mode"] = "gop"
		results["gop_period"] = g.KI
		results["h"] = g.IModel.H
		results["mean_rate"] = g.MeanRate()
		return nil
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
	m, err := core.FitCtx(ctx, sizes, opt)
	if err != nil {
		return err
	}
	printModel(stdout, m, "fitted unified model")
	results["mode"] = "single"
	results["h"] = m.H
	results["attenuation"] = m.Attenuation
	results["knee"] = m.Foreground.Knee
	results["beta"] = m.Foreground.Beta
	results["mean_rate"] = m.MeanRate()

	if *refine {
		res, err := m.Refine(core.RefineOptions{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "refinement: ACF RMS error %.4f -> %.4f over %d rounds (best round %d)\n",
			res.Errors[0], res.Errors[res.Best], len(res.Errors)-1, res.Best)
	}

	if *jsonOut != "" {
		spec := modelspec.FromModel(m, specName(*in, *frameType), *seed)
		data, err := json.MarshalIndent(&spec, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			if _, err := stdout.Write(data); err != nil {
				return err
			}
		} else {
			if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %s\n", *jsonOut)
		}
	}

	if *transform == "" {
		return nil
	}
	return trace.WriteDat(*transform, stderr, func(f io.Writer) {
		xs, hs := m.Transform.Table(-6, 6, 240)
		for i := range xs {
			fmt.Fprintf(f, "%g\t%g\n", xs[i], hs[i])
		}
	})
}

// specName derives a spec name from the input path and frame-type filter.
func specName(path, frameType string) string {
	base := strings.TrimSuffix(strings.TrimSuffix(path, ".csv"), ".bin")
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if frameType != "" {
		base += "-" + strings.ToUpper(frameType)
	}
	return base
}

func printModel(w io.Writer, m *core.Model, label string) {
	fmt.Fprintf(w, "%s:\n", label)
	fmt.Fprintf(w, "  step 1: H = %.3f (variance-time %.3f, R/S %.3f; paper: 0.89/0.92 -> 0.9)\n",
		m.H, m.VT.H, m.RS.H)
	fg := m.Foreground
	fmt.Fprintf(w, "  step 2: r^(k) = %s for k < %d, %.4f k^-%.3f beyond\n",
		srdString(fg.Weights, fg.Rates), fg.Knee, fg.L, fg.Beta)
	fmt.Fprintf(w, "          (paper eq. 13: exp(-0.00565 k), 1.5947 k^-0.2, knee 60)\n")
	fmt.Fprintf(w, "  step 3: attenuation a = %.3f (paper: 0.94)\n", m.Attenuation)
	bg := m.Background
	fmt.Fprintf(w, "  step 4: background r(k) = %s for k < %d, %.4f k^-%.3f beyond\n",
		srdString(bg.Weights, bg.Rates), bg.Knee, bg.L, bg.Beta)
	fmt.Fprintf(w, "  marginal: mean %.1f bytes over %d observations\n", m.Marginal.Mean(), m.Marginal.Len())
}

// srdString formats a weighted exponential sum.
func srdString(weights, rates []float64) string {
	var parts []string
	for i := range weights {
		if len(weights) == 1 {
			parts = append(parts, fmt.Sprintf("exp(-%.5f k)", rates[i]))
		} else {
			parts = append(parts, fmt.Sprintf("%.3f exp(-%.5f k)", weights[i], rates[i]))
		}
	}
	return strings.Join(parts, " + ")
}
