package vbrsim_test

import (
	"fmt"

	"vbrsim"
)

// ExampleFit runs the paper's four-step pipeline on a synthetic trace,
// reports the structural results, and derives the fractional-Brownian
// parameters that admission control takes from the fitted model.
func ExampleFit() {
	tr, err := vbrsim.GenerateMPEGTrace(vbrsim.MPEGTraceConfig{Frames: 1 << 17, Seed: 1})
	if err != nil {
		panic(err)
	}
	sizes := tr.ByType(vbrsim.FrameI)
	model, err := vbrsim.Fit(sizes, vbrsim.FitOptions{Seed: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("long-range dependent:", model.H > 0.5 && model.H < 1)
	fmt.Println("attenuation in (0,1]:", model.Attenuation > 0 && model.Attenuation <= 1)
	fmt.Println("composite continuous:", model.Foreground.ContinuityGap() < 1e-9)

	var variance float64
	for _, v := range sizes {
		variance += (v - model.MeanRate()) * (v - model.MeanRate())
	}
	src, err := vbrsim.NorrosFromModel(model, variance/float64(len(sizes)))
	if err != nil {
		panic(err)
	}
	fmt.Println("fBm mean is the model's:", src.MeanRate == model.MeanRate())
	fmt.Println("fBm long-range dependent:", src.H > 0.5 && src.H < 1)
	// Output:
	// long-range dependent: true
	// attenuation in (0,1]: true
	// composite continuous: true
	// fBm mean is the model's: true
	// fBm long-range dependent: true
}

// ExampleGenerateFGN shows exact fractional Gaussian noise generation.
func ExampleGenerateFGN() {
	x, err := vbrsim.GenerateFGN(0.9, 4096, 7)
	if err != nil {
		panic(err)
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	fmt.Println("length:", len(x))
	fmt.Println("mean near zero:", mean > -1.5 && mean < 1.5)
	// Output:
	// length: 4096
	// mean near zero: true
}

// ExampleModel_Generate synthesizes traffic matching a fitted model.
func ExampleModel_Generate() {
	tr, err := vbrsim.GenerateMPEGTrace(vbrsim.MPEGTraceConfig{Frames: 1 << 16, Seed: 3})
	if err != nil {
		panic(err)
	}
	model, err := vbrsim.Fit(tr.ByType(vbrsim.FrameI), vbrsim.FitOptions{Seed: 4})
	if err != nil {
		panic(err)
	}
	frames, err := model.Generate(5000, 42, vbrsim.BackendAuto)
	if err != nil {
		panic(err)
	}
	nonNegative := true
	for _, f := range frames {
		if f < 0 {
			nonNegative = false
		}
	}
	fmt.Println("frames:", len(frames))
	fmt.Println("all non-negative:", nonNegative)
	// Output:
	// frames: 5000
	// all non-negative: true
}

// ExampleEstimateOverflowIS estimates a buffer-overflow probability with
// importance sampling.
func ExampleEstimateOverflowIS() {
	tr, err := vbrsim.GenerateMPEGTrace(vbrsim.MPEGTraceConfig{Frames: 1 << 16, Seed: 5})
	if err != nil {
		panic(err)
	}
	model, err := vbrsim.Fit(tr.ByType(vbrsim.FrameI), vbrsim.FitOptions{Seed: 6})
	if err != nil {
		panic(err)
	}
	plan, err := model.Plan(200)
	if err != nil {
		panic(err)
	}
	service, err := vbrsim.ServiceForUtilization(model.MeanRate(), 0.5)
	if err != nil {
		panic(err)
	}
	res, err := vbrsim.EstimateOverflowIS(vbrsim.ISConfig{
		Plan:         plan,
		Transform:    model.Transform,
		Service:      service,
		Buffer:       20 * model.MeanRate(),
		Horizon:      200,
		Twist:        1.2,
		Replications: 500,
		Seed:         7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("estimate in (0,1):", res.P > 0 && res.P < 1)
	fmt.Println("variance reduced:", vbrsim.VarianceReduction(res) > 1)
	// Output:
	// estimate in (0,1): true
	// variance reduced: true
}

// ExampleMaxAdmissibleSources sizes a video multiplexer.
func ExampleMaxAdmissibleSources() {
	src := vbrsim.NorrosParams{MeanRate: 3000, VarCoeff: 5e6, H: 0.85}
	link := vbrsim.AdmissionLink{Capacity: 100000, Buffer: 300000, LossTarget: 1e-6}
	lrd, err := vbrsim.MaxAdmissibleSources(src, link)
	if err != nil {
		panic(err)
	}
	markov, err := vbrsim.MarkovianMaxSources(src, link)
	if err != nil {
		panic(err)
	}
	fmt.Println("LRD admits fewer than Markovian:", lrd < markov)
	fmt.Println("link not overbooked:", float64(lrd)*src.MeanRate < link.Capacity)
	// Output:
	// LRD admits fewer than Markovian: true
	// link not overbooked: true
}
