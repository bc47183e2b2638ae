package server

import (
	"net/http"
	"time"

	"vbrsim/internal/statmon"
)

// SessionStats is the GET /v1/sessions/{id}/stats response: the session's
// identity plus the live monitor snapshot. Monitored is false (and Stats
// absent) when statmon is disabled.
type SessionStats struct {
	ID        string            `json:"id"`
	Name      string            `json:"name"`
	Kind      string            `json:"kind,omitempty"`
	Monitored bool              `json:"monitored"`
	Stats     *statmon.Snapshot `json:"stats,omitempty"`
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.getSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	ss.mu.Lock()
	mon, closed := ss.mon, ss.closed
	ss.mu.Unlock()
	kind, _ := ss.kind()
	out := SessionStats{ID: ss.id, Name: ss.name, Kind: kind}
	if closed {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	if mon != nil {
		snap := mon.Snapshot()
		out.Monitored = true
		out.Stats = &snap
	}
	writeJSON(w, http.StatusOK, out)
}

// StatusReport is the GET /v1/status response: the one-screen fleet view.
type StatusReport struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Draining      bool         `json:"draining"`
	Sessions      int          `json:"sessions"`
	TrunkSessions int          `json:"trunk_sessions"`
	CostUsed      float64      `json:"admission_cost_used"`
	Statmon       statmonFleet `json:"statmon"`
	DriftingIDs   []string     `json:"drifting_ids,omitempty"`
}

// handleStatus serves the fleet rollup. Unlike the cached metric gauges
// this walks the fleet fresh — the endpoint is for humans and scripts
// investigating a run, and it names the drifting sessions.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	rep := s.foldFleet()
	rep.UptimeSeconds = time.Since(s.started).Seconds()
	rep.Draining = s.adm.isDraining()
	rep.CostUsed = s.adm.usedCost()
	writeJSON(w, http.StatusOK, rep)
}
