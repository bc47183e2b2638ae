package server

import (
	"slices"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/obs"
	"vbrsim/internal/statmon"
)

// monitorACFLen is how much of the model-implied ACF each monitor gets:
// ρ(0..streamChunk), enough to cover statmon's largest dyadic fit scale
// (which is capped at the serve-path chunk size — sampled taps are
// contiguous only within one chunk).
const monitorACFLen = streamChunk + 1

// monitorSettings is the statmon configuration every session of the
// server shares, or nil when statmon is disabled (StatmonSampleEvery < 0).
// Zero config fields fall through to statmon's documented defaults.
func monitorSettings(opt *Options) *statmon.Settings {
	if opt.StatmonSampleEvery < 0 {
		return nil
	}
	return statmon.NewSettings(statmon.Config{
		SampleEvery:    opt.StatmonSampleEvery,
		DriftThreshold: opt.StatmonDriftThreshold,
		MaxScale:       streamChunk,
	})
}

// newMonitor builds a session's statistical monitor scored against ref, or
// returns nil when statmon is disabled.
func (s *Server) newMonitor(ref *statmon.Reference) *statmon.Monitor {
	if s.monSet == nil {
		return nil
	}
	return s.monSet.New(ref)
}

// emptyRef is the reference of sessions whose moments are not exposed
// analytically (trunks): the monitor tracks observed statistics for the
// stats endpoint but never scores drift.
var emptyRef = statmon.NewReference(statmon.Ref{})

// streamRefKey is what a stream session's reference reads beyond the
// spec's shared state.
type streamRefKey struct{ h, asymH float64 }

// streamRef is the reference of a plain stream session: everything the
// spec claims analytically — the target Hurst parameter, the ACF-implied
// asymptotic H, the model-implied autocorrelation of served traffic, and
// the marginal quantile function. Engines without analytic references
// (GOP, TES autocorrelation) get a partially-filled Ref; statmon switches
// the corresponding checks off. The compiled reference is built once per
// spec and claimed H (modelspec.Stream.Memo); nil when statmon is
// disabled.
func (s *Server) streamRef(spec *modelspec.Spec, stream *modelspec.Stream) *statmon.Reference {
	if s.monSet == nil {
		return nil
	}
	key := streamRefKey{spec.TargetHurst(), spec.ACF.AsymptoticHurst()}
	return stream.Memo(key, func() any {
		ref := statmon.Ref{
			H:          key.h,
			AsymH:      key.asymH,
			ImpliedACF: stream.ImpliedACF(monitorACFLen),
			Mean:       stream.MeanRate(),
		}
		if marg := stream.Marginal(); marg != nil {
			ref.Quantile = marg.Quantile
		}
		return statmon.NewReference(ref)
	}).(*statmon.Reference)
}

// ---------------------------------------------------------------------------
// Fleet rollup

// statmonFleet is the fleet-level aggregate behind the vbrsim_statmon_*
// gauges and the /v1/status report.
type statmonFleet struct {
	Monitored int     `json:"monitored"`
	Drifting  int     `json:"drifting"`
	MeanHurst float64 `json:"mean_hurst"`
	MaxACFErr float64 `json:"max_acf_err"`
	MaxDrift  float64 `json:"max_drift"`

	hurstN int
}

// statmonRollupTTL caches the fleet rollup between metric scrapes: the five
// statmon gauges are separate GaugeFuncs, and each snapshot walks every
// monitored session, so one scrape must not recompute the fleet five times.
const statmonRollupTTL = time.Second

// statmonRollup returns the (possibly cached) fleet aggregate.
func (s *Server) statmonRollup() statmonFleet {
	s.rollMu.Lock()
	defer s.rollMu.Unlock()
	now := time.Now()
	if now.Sub(s.rollAt) < statmonRollupTTL {
		return s.roll
	}
	s.rollAt = now
	s.roll = s.foldFleet().Statmon
	return s.roll
}

// foldFleet walks the registry once and fills the fleet part of a status
// report: live and trunk session counts, the statmon aggregate over live
// monitored sessions, and the drifting session IDs in ID order.
func (s *Server) foldFleet() StatusReport {
	var rep StatusReport
	f := &rep.Statmon
	for _, ss := range s.reg.list() {
		ss.mu.Lock()
		mon, closed := ss.mon, ss.closed
		ss.mu.Unlock()
		if closed {
			continue
		}
		rep.Sessions++
		if kind, _ := ss.kind(); kind == sessionKindTrunk {
			rep.TrunkSessions++
		}
		if mon == nil {
			continue
		}
		snap := mon.Snapshot()
		f.Monitored++
		if snap.Drifting {
			f.Drifting++
			rep.DriftingIDs = append(rep.DriftingIDs, ss.id)
		}
		if snap.HurstValid {
			f.MeanHurst += snap.Hurst
			f.hurstN++
		}
		if snap.ACFErr > f.MaxACFErr {
			f.MaxACFErr = snap.ACFErr
		}
		if snap.Drift > f.MaxDrift {
			f.MaxDrift = snap.Drift
		}
	}
	if f.hurstN > 0 {
		f.MeanHurst /= float64(f.hurstN)
	}
	slices.SortFunc(rep.DriftingIDs, compareSessionIDs)
	return rep
}

// registerStatmonGauges exports the fleet rollup. Gauges, not per-session
// labels: a 10k-session fleet must not mint 10k label sets per scrape — the
// per-session detail lives behind GET /v1/sessions/{id}/stats.
func (s *Server) registerStatmonGauges(reg *obs.Registry) {
	reg.GaugeFunc("vbrsim_statmon_sessions_monitored",
		"Sessions with a live statistical monitor attached.",
		func() float64 { return float64(s.statmonRollup().Monitored) })
	reg.GaugeFunc("vbrsim_statmon_sessions_drifting",
		"Monitored sessions whose drift score is at or above the threshold.",
		func() float64 { return float64(s.statmonRollup().Drifting) })
	reg.GaugeFunc("vbrsim_statmon_hurst",
		"Mean online aggregated-variance Hurst estimate across monitored sessions.",
		func() float64 { return s.statmonRollup().MeanHurst })
	reg.GaugeFunc("vbrsim_statmon_acf_err",
		"Worst observed-vs-implied autocorrelation error across monitored sessions.",
		func() float64 { return s.statmonRollup().MaxACFErr })
	reg.GaugeFunc("vbrsim_statmon_drift",
		"Worst drift score across monitored sessions.",
		func() float64 { return s.statmonRollup().MaxDrift })
}
