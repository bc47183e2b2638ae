package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"vbrsim/internal/par"
)

// maxStepFrames bounds the per-session frame count of one step request
// (the work runs lock-held per session, like a frames read).
const maxStepFrames = 1 << 20

// maxStepReturnFrames is the tighter bound when the stepped frames are
// returned in the JSON response body rather than discarded.
const maxStepReturnFrames = 1 << 16

// StepRequest is the POST /v1/streams/step body.
type StepRequest struct {
	// IDs lists the sessions to advance, in response order.
	IDs []string `json:"ids"`
	// N is the frame count each listed session advances by.
	N int `json:"n"`
	// IncludeFrames returns the generated frames per session (bounded by
	// maxStepReturnFrames); when false the sessions advance positions only,
	// which is the cheap bulk-warm path.
	IncludeFrames bool `json:"include_frames,omitempty"`
}

// StepResult is one session's outcome in the step response.
type StepResult struct {
	ID    string `json:"id"`
	Start int    `json:"start"` // position before the step
	Pos   int    `json:"pos"`   // position after the step
	// Frames carries the stepped frames when requested.
	Frames []float64 `json:"frames,omitempty"`
	// Gone marks a session that was deleted or evicted between the
	// request's atomic validation and this session's turn in the batch; it
	// did not advance.
	Gone bool `json:"gone,omitempty"`
}

// handleStreamStep advances many sessions at once: the batched-stepping
// entry point for simulation drivers. Validation is atomic — every listed
// session must exist before any session moves — then the whole fleet fans
// out across StepWorkers via par.ForChunks: each worker owns one sticky
// contiguous run of the request's ID list, each session advancing under
// its own lock. The worker→range mapping depends only on (workers, fleet
// size), so a driver stepping the same fleet every round lands each
// session on the same worker, keeping its synthesis arena warm in that
// worker's cache instead of bouncing between cores. Determinism is per
// session: a session's frames depend only on its spec, seed, and
// cumulative position, never on fleet composition, worker count, or
// scheduling.
func (s *Server) handleStreamStep(w http.ResponseWriter, r *http.Request) {
	var req StepRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("need at least one session id"))
		return
	}
	if req.N <= 0 {
		httpError(w, http.StatusBadRequest, errors.New("need n > 0 frames"))
		return
	}
	limit := maxStepFrames
	if req.IncludeFrames {
		limit = maxStepReturnFrames
	}
	if req.N > limit {
		httpError(w, http.StatusBadRequest, fmt.Errorf("n=%d exceeds the per-step limit %d", req.N, limit))
		return
	}
	sessions := make([]*session, len(req.IDs))
	for i, id := range req.IDs {
		ss, ok := s.getSession(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("%w: %s", errNoSession, id))
			return
		}
		sessions[i] = ss
	}

	// A step is not cancelled part-way: every listed session that is still
	// open advances by exactly n.
	ctx := context.WithoutCancel(r.Context())
	results := make([]StepResult, len(sessions))
	workers := par.Workers(s.opt.StepWorkers, len(sessions))
	par.ForChunks(workers, len(sessions), func(_, lo, hi int) {
		// One scratch chunk per worker run, not per session: the discard
		// path reuses it across every session in [lo, hi).
		var scratch []float64
		if !req.IncludeFrames {
			scratch = make([]float64, min(req.N, streamChunk))
		}
		for i := lo; i < hi; i++ {
			ss := sessions[i]
			ss.mu.Lock()
			if ss.closed {
				ss.mu.Unlock()
				results[i] = StepResult{ID: ss.id, Start: -1, Pos: -1, Gone: true}
				continue
			}
			res := StepResult{ID: ss.id, Start: ss.stream.Pos()}
			buf := scratch
			if req.IncludeFrames {
				res.Frames = make([]float64, req.N)
				buf = res.Frames
			}
			s.produce(ctx, ss, req.N, buf, nil)
			res.Pos = ss.stream.Pos()
			ss.mu.Unlock()
			results[i] = res
		}
	})
	writeJSON(w, http.StatusOK, results)
}
