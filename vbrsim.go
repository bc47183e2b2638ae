// Package vbrsim is a Go implementation of "Modeling and Simulation of
// Self-Similar Variable Bit Rate Compressed Video: A Unified Approach"
// (Huang, Devetsikiotis, Lambadaris, Kaye — ACM SIGCOMM 1995).
//
// The library models VBR compressed video traffic so that a synthetic
// source matches an empirical trace in BOTH its marginal distribution and
// its full autocorrelation structure — the short-range (exponential) part
// below the ACF "knee" and the long-range (power-law, self-similar) part
// beyond it — and then uses importance sampling on the Gaussian background
// process to estimate rare buffer-overflow probabilities in an ATM
// multiplexer model quickly.
//
// # Quick start
//
//	tr, _ := vbrsim.GenerateMPEGTrace(vbrsim.MPEGTraceConfig{Frames: 1 << 17, Seed: 1})
//	model, _ := vbrsim.Fit(tr.ByType(vbrsim.FrameI), vbrsim.FitOptions{})
//	synthetic, _ := model.Generate(10000, 42, vbrsim.BackendAuto)
//
// The exported names are thin aliases over the implementation packages; see
// DESIGN.md for the module map and EXPERIMENTS.md for the paper-vs-measured
// record of every table and figure.
package vbrsim

import (
	"context"

	"vbrsim/internal/acf"
	"vbrsim/internal/admission"
	"vbrsim/internal/baseline"
	"vbrsim/internal/core"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/dist"
	"vbrsim/internal/experiments"
	"vbrsim/internal/farima"
	"vbrsim/internal/hosking"
	"vbrsim/internal/hurst"
	"vbrsim/internal/impsample"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/mpegtrace"
	"vbrsim/internal/norros"
	"vbrsim/internal/queue"
	"vbrsim/internal/rng"
	"vbrsim/internal/stats"
	"vbrsim/internal/tes"
	"vbrsim/internal/trace"
	"vbrsim/internal/transform"
	"vbrsim/internal/trunk"
)

// Modeling pipeline (paper Section 3).
type (
	// Model is the fitted unified model for a single frame-size process.
	Model = core.Model
	// GOPModel is the composite interframe (I-B-P) model of Section 3.3.
	GOPModel = core.GOPModel
	// FitOptions tunes the fitting pipeline.
	FitOptions = core.FitOptions
	// Backend selects the Gaussian background generator.
	Backend = core.Backend
	// ACFComposite is the composite knee autocorrelation model (eqs. 10-12).
	ACFComposite = acf.Composite
	// Transform is the histogram-inversion marginal transform h (eq. 7).
	Transform = transform.T
)

// Background generation backends.
const (
	BackendAuto        = core.BackendAuto
	BackendHosking     = core.BackendHosking
	BackendDaviesHarte = core.BackendDaviesHarte
	// BackendHoskingFast generates through a truncated-AR approximation of
	// the exact Hosking recursion: O(p) per step instead of O(k), with a
	// small, reported ACF error.
	BackendHoskingFast = core.BackendHoskingFast
)

// FastPlan is a truncated-AR(p) approximation of an exact Hosking plan:
// constant work and memory per generated step, unbounded horizon.
type FastPlan = hosking.Truncated

// TruncateOptions controls how an exact plan is frozen into a FastPlan.
type TruncateOptions = hosking.TruncateOptions

// PlanCacheStats is a snapshot of the shared plan cache's counters (the
// same figures trafficd exports as vbrsim_plan_cache_* metrics).
type PlanCacheStats = hosking.CacheStats

// SharedPlanCacheStats reports the process-wide plan cache's hit, miss,
// eviction, and singleflight-wait counts.
func SharedPlanCacheStats() PlanCacheStats { return hosking.Shared.Stats() }

// Fit runs the paper's Steps 1-4 on a bytes-per-frame record.
func Fit(sizes []float64, opt FitOptions) (*Model, error) { return core.Fit(sizes, opt) }

// FitGOP fits the composite I-B-P model to a typed trace.
func FitGOP(tr *Trace, opt FitOptions) (*GOPModel, error) { return core.FitGOP(tr, opt) }

// Traces.
type (
	// Trace is a frame-size trace with I/P/B annotations.
	Trace = trace.Trace
	// TraceSummary is the Table-1 style statistics of a trace.
	TraceSummary = trace.Summary
	// FrameType is an MPEG frame coding mode.
	FrameType = trace.FrameType
	// MPEGTraceConfig parameterizes the synthetic MPEG-1 VBR source that
	// substitutes for the paper's proprietary movie trace.
	MPEGTraceConfig = mpegtrace.Config
)

// MPEG frame types.
const (
	FrameI = trace.FrameI
	FrameP = trace.FrameP
	FrameB = trace.FrameB
)

// GenerateMPEGTrace produces a synthetic empirical-style MPEG-1 VBR trace.
func GenerateMPEGTrace(cfg MPEGTraceConfig) (*Trace, error) { return mpegtrace.Generate(cfg) }

// Hurst estimation (paper Step 1).
type (
	// HurstEstimate is one estimator's result with its plot points.
	HurstEstimate = hurst.Estimate
	// VarianceTimeOptions tunes the variance-time estimator.
	VarianceTimeOptions = hurst.VarianceTimeOptions
	// RSOptions tunes the R/S (pox) estimator.
	RSOptions = hurst.RSOptions
)

// EstimateHurstVT estimates the Hurst parameter by variance-time analysis.
func EstimateHurstVT(x []float64, opt VarianceTimeOptions) (HurstEstimate, error) {
	return hurst.VarianceTime(x, opt)
}

// EstimateHurstRS estimates the Hurst parameter by R/S (pox) analysis.
func EstimateHurstRS(x []float64, opt RSOptions) (HurstEstimate, error) {
	return hurst.RS(x, opt)
}

// EstimateHurst combines the two paper estimators (average of VT and R/S).
func EstimateHurst(x []float64) (h float64, vt, rs HurstEstimate, err error) {
	return hurst.Combined(x)
}

// LocalWhittleOptions tunes the semiparametric Whittle estimator.
type LocalWhittleOptions = hurst.LocalWhittleOptions

// EstimateHurstWhittle estimates H by local Whittle likelihood (Robinson
// 1995), a likelihood-based cross-check for the paper's two graphical
// estimators.
func EstimateHurstWhittle(x []float64, opt LocalWhittleOptions) (HurstEstimate, error) {
	return hurst.LocalWhittle(x, opt)
}

// Queueing and fast simulation (paper Section 4, Appendix B).
type (
	// QueueResult is a Monte-Carlo or IS estimate with uncertainty.
	QueueResult = queue.Result
	// MCOptions controls plain Monte-Carlo estimation.
	MCOptions = queue.MCOptions
	// PathSource yields replication arrival paths.
	PathSource = queue.PathSource
	// PathSourceFunc adapts a function to PathSource.
	PathSourceFunc = queue.PathSourceFunc
	// ISConfig parameterizes importance-sampling estimation.
	ISConfig = impsample.Config
	// ISMode selects the crossing or Lindley estimator.
	ISMode = impsample.Mode
	// ArrivalSource adapts a fitted model to PathSource.
	ArrivalSource = core.ArrivalSource
)

// Importance-sampling estimator modes.
const (
	ISModeCrossing = impsample.ModeCrossing
	ISModeLindley  = impsample.ModeLindley
)

// LindleyEvolve runs the slotted queue recursion (eq. 16).
func LindleyEvolve(q0 float64, arrivals []float64, service float64) []float64 {
	return queue.Evolve(q0, arrivals, service)
}

// EstimateOverflowMC estimates P(Q_k > b) by plain Monte Carlo.
func EstimateOverflowMC(src PathSource, service, b float64, k int, opt MCOptions) (QueueResult, error) {
	return queue.EstimateOverflow(src, service, b, k, opt)
}

// EstimateOverflowIS estimates P(Q_k > b) by importance sampling on the
// twisted background process.
func EstimateOverflowIS(cfg ISConfig) (QueueResult, error) { return impsample.Estimate(cfg) }

// EstimateTransientIS estimates P(Q_k > b) at several checkpoints in one
// pass per replication.
func EstimateTransientIS(cfg ISConfig, checkpoints []int) ([]QueueResult, error) {
	return impsample.EstimateTransient(cfg, checkpoints)
}

// SearchTwist sweeps candidate twists and locates the normalized-variance
// valley (the paper's Fig. 14 heuristic).
func SearchTwist(cfg ISConfig, twists []float64) ([]impsample.TwistSearchResult, int, error) {
	return impsample.SearchTwist(cfg, twists)
}

// VarianceReduction reports how much an IS result beats plain Monte Carlo.
func VarianceReduction(res QueueResult) float64 { return impsample.VarianceReduction(res) }

// ServiceForUtilization returns the service rate giving the target
// utilization for the given mean arrival rate.
func ServiceForUtilization(meanArrival, utilization float64) (float64, error) {
	return queue.UtilizationService(meanArrival, utilization)
}

// Baselines (traditional models and Fig.-17 variants).
type (
	// DAR1 is the discrete autoregressive baseline source.
	DAR1 = baseline.DAR1
	// MMPP2 is the two-state Markov-modulated Poisson baseline source.
	MMPP2 = baseline.MMPP2
	// TESConfig parameterizes a TES (Transform-Expand-Sample) process, the
	// prior marginal+ACF matching technique the paper extends.
	TESConfig = tes.Config
	// TESGenerator produces one TES sample path.
	TESGenerator = tes.Generator
	// TESSource adapts a TES configuration to PathSource.
	TESSource = tes.Source
)

// NewTES builds a TES generator.
func NewTES(cfg TESConfig, r *rng.Source) (*TESGenerator, error) { return tes.New(cfg, r) }

// TESCalibrateAlpha returns the TES innovation width whose background lag-1
// autocorrelation matches rho.
func TESCalibrateAlpha(rho float64) (float64, error) { return tes.CalibrateAlpha(rho) }

// ATM adaptation and multiplexing.

// ATMCellPayload is the usable payload of one ATM cell in bytes.
const ATMCellPayload = queue.ATMCellPayload

// Superposition multiplexes N independent copies of a source.
type Superposition = queue.Superposition

// Trunk superposition (internal/trunk): N heterogeneous sources summed
// into one aggregate arrival process with derived per-source seeds.
type (
	// TrunkSpec is the serializable trunk: weighted component model specs
	// plus an optional shared marginal. trafficd serves these as trunk
	// sessions; OpenTrunk materializes them in process.
	TrunkSpec = modelspec.TrunkSpec
	// TrunkSpecComponent is one weighted component group in a TrunkSpec.
	TrunkSpecComponent = modelspec.TrunkComponent
	// Trunk is an open superposition stream (Fill/Seek/Reseed).
	Trunk = trunk.Trunk
	// TrunkOptions tunes trunk construction.
	TrunkOptions = trunk.Options
)

// OpenTrunk materializes a trunk spec into an aggregate stream.
func OpenTrunk(ctx context.Context, spec *TrunkSpec, opt TrunkOptions) (*Trunk, error) {
	return trunk.Open(ctx, spec, opt)
}

// TrunkSourceSeed derives the seed of flattened source ordinal s of a trunk
// keyed by trunkSeed (the trafficd session-seed mix).
func TrunkSourceSeed(trunkSeed uint64, ordinal int) uint64 {
	return trunk.SourceSeed(trunkSeed, ordinal)
}

// SegmentIntoCells converts bytes-per-frame into cells-per-slot with
// optional frame spreading.
func SegmentIntoCells(frameBytes []float64, payload, slotsPerFrame int) ([]float64, error) {
	return queue.SegmentIntoCells(frameBytes, payload, slotsPerFrame)
}

// Parametric marginal fitting (the Garrett-Willinger route).
type (
	// GammaPareto is the hybrid Gamma-body/Pareto-tail marginal.
	GammaPareto = dist.GammaPareto
	// FitGammaOptions tunes FitGammaPareto.
	FitGammaOptions = dist.FitGammaOptions
)

// FitGammaPareto fits the hybrid Gamma/Pareto marginal to a sample.
func FitGammaPareto(sample []float64, opt FitGammaOptions) (*GammaPareto, error) {
	return dist.FitGammaPareto(sample, opt)
}

// HillTailIndex estimates a Pareto tail index from the top-k order
// statistics.
func HillTailIndex(sample []float64, k int) (float64, error) {
	return dist.HillTailIndex(sample, k)
}

// Model refinement (the paper's "automatic search" future work).
type (
	// RefineOptions controls Model.Refine.
	RefineOptions = core.RefineOptions
	// RefineResult reports the refinement trajectory.
	RefineResult = core.RefineResult
)

// Analytic storage model (Norros, the paper's ref. [23]).

// NorrosParams describes fractional-Brownian traffic for the closed-form
// overflow approximation.
type NorrosParams = norros.Params

// NorrosFromModel derives fractional-Brownian parameters from a fitted
// unified model and the marginal variance of the trace it was fitted on.
func NorrosFromModel(m *Model, marginalVariance float64) (NorrosParams, error) {
	return norros.FromComposite(m.Marginal, marginalVariance, m.Foreground)
}

// Connection admission control built on the fBm effective bandwidth.
type (
	// AdmissionLink describes the multiplexer being provisioned.
	AdmissionLink = admission.Link
)

// MaxAdmissibleSources returns how many homogeneous video sources the link
// carries within its loss target (Norros effective bandwidth).
func MaxAdmissibleSources(src NorrosParams, l AdmissionLink) (int, error) {
	return admission.MaxSources(src, l)
}

// MarkovianMaxSources is the SRD strawman admission decision (H -> 1/2),
// for quantifying how much LRD-aware control must back off.
func MarkovianMaxSources(src NorrosParams, l AdmissionLink) (int, error) {
	return admission.MarkovianMaxSources(src, l)
}

// Full FARIMA (the alternative the paper contrasts with).

// FARIMA is the FARIMA(1,d,1) family with exact ACF and generation.
type FARIMA = farima.Full

// NewFARIMA builds a FARIMA(phi, d, theta) model.
func NewFARIMA(phi, d, theta float64) (*FARIMA, error) { return farima.NewFull(phi, d, theta) }

// FitFARIMAOptions controls FitFARIMA.
type FitFARIMAOptions = farima.FitFullOptions

// FitFARIMA fits FARIMA(1,d,1) coefficients to an empirical ACF by grid
// search with d fixed.
func FitFARIMA(empiricalACF []float64, opt FitFARIMAOptions) (*FARIMA, float64, error) {
	return farima.FitFull(empiricalACF, opt)
}

// Single-trace uncertainty and marginal distance.

// BatchResult is a batch-means estimate with its (nominal) uncertainty and
// the batch-mean correlation that reveals LRD-induced optimism.
type BatchResult = queue.BatchResult

// TraceOverflowCI estimates steady-state P(Q > b) from one long trace with
// batch-means confidence intervals.
func TraceOverflowCI(arrivals []float64, service, b float64, warmup, batches int) (BatchResult, error) {
	return queue.TraceOverflowCI(arrivals, service, b, warmup, batches)
}

// KolmogorovSmirnov returns the two-sample KS statistic between samples.
func KolmogorovSmirnov(a, b []float64) (float64, error) {
	return stats.KolmogorovSmirnov(a, b)
}

// Slice-level traces.

// SliceOptions controls frame-to-slice decomposition.
type SliceOptions = mpegtrace.SliceOptions

// ToSlices converts a frame-level trace to slice level (Table 1: 15 slices
// per frame), conserving per-frame byte totals exactly.
func ToSlices(tr *Trace, opt SliceOptions) (*Trace, error) { return mpegtrace.ToSlices(tr, opt) }

// Experiments (every paper table and figure).
type (
	// Lab regenerates the paper's exhibits.
	Lab = experiments.Lab
	// LabConfig scales the experiment suite.
	LabConfig = experiments.Config
	// ExperimentResult is one regenerated exhibit.
	ExperimentResult = experiments.Result
)

// NewLab creates an experiment lab.
func NewLab(cfg LabConfig) *Lab { return experiments.NewLab(cfg) }

// Self-similar process generation.

// GenerateFGN returns an exact sample path of fractional Gaussian noise
// with Hurst parameter h in (0,1), zero mean and unit variance, generated
// by circulant embedding in O(n log n).
func GenerateFGN(h float64, n int, seed uint64) ([]float64, error) {
	plan, err := daviesharte.NewPlan(acf.FGN{H: h}, n, daviesharte.Options{AllowApprox: true})
	if err != nil {
		return nil, err
	}
	return plan.Path(rng.New(seed)), nil
}

// GenerateFARIMA returns an exact sample path of the fractional
// ARIMA(0,d,0) process (d in (-1/2, 1/2); H = d + 1/2), zero mean and unit
// variance.
func GenerateFARIMA(d float64, n int, seed uint64) ([]float64, error) {
	model := farima.ACF{D: d}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	plan, err := daviesharte.NewPlan(model, n, daviesharte.Options{AllowApprox: true})
	if err != nil {
		return nil, err
	}
	return plan.Path(rng.New(seed)), nil
}

// Randomness.

// Rand is the library's deterministic random source (xoshiro256++).
type Rand = rng.Source

// NewRand returns the library's deterministic random source.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Distributions usable as foreground marginals.
type (
	// Distribution is a univariate marginal law.
	Distribution = dist.Distribution
	// Empirical is the histogram-inversion marginal the paper uses.
	Empirical = dist.Empirical
)

// NewEmpirical builds an empirical marginal from a sample.
func NewEmpirical(sample []float64) (*Empirical, error) { return dist.NewEmpirical(sample) }

// NewTransform builds the h transform onto the given marginal (eq. 7).
func NewTransform(target Distribution) Transform { return transform.New(target) }
