package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"vbrsim/internal/hosking"
	"vbrsim/internal/modelspec"
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
	// IDs lists the sessions to advance, in response order. Each session
	// may be listed once; a repeated id rejects the request (400) before
	// any session moves.
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

// stepGroup is the most sessions a step worker locks and fills together:
// one lane group of modelspec.FillStreams.
const stepGroup = hosking.Lanes

// stepScratch pools the discard path's chunk buffers, stepGroup chunks of
// streamChunk frames per worker run.
var stepScratch = sync.Pool{New: func() any {
	b := make([]float64, stepGroup*streamChunk)
	return &b
}}

// handleStreamStep advances many sessions at once: the batched-stepping
// entry point for simulation drivers. Validation is atomic — every listed
// session must exist, and be listed once, before any session moves — then
// the whole fleet fans out across StepWorkers via par.ForChunks: each
// worker owns one sticky contiguous run of the request's ID list. The
// worker→range mapping depends only on (workers, fleet size), so a driver
// stepping the same fleet every round lands each session on the same
// worker, keeping its synthesis state warm in that worker's cache instead
// of bouncing between cores.
//
// Within its run a worker steps lockstep groups: it locks the next session
// (blocking), then TryLocks the sessions after it, up to stepGroup in all,
// and produce fills the group together (modelspec.FillStreams runs the
// truncated engine's AR recursions in lockstep, bit for bit). A session
// whose TryLock fails is stepped alone after the rest of the run, under a
// blocking lock taken while the worker holds no other. A step therefore
// never waits on one session while holding another, so steps listing
// sessions in opposite orders, frames reads, deletes and the evictor cannot
// deadlock with it. Trunk sessions step alone. Determinism is per session:
// a session's frames depend only on its spec, seed, and cumulative
// position, never on fleet composition, grouping, worker count, or
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
	sorted := slices.Clone(req.IDs)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			httpError(w, http.StatusBadRequest, fmt.Errorf("session %s is listed more than once", sorted[i]))
			return
		}
	}
	sessions := make([]*session, len(req.IDs))
	for i, id := range req.IDs {
		ss, ok := s.reg.get(id)
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
	chunk := min(req.N, streamChunk)
	par.ForChunks(workers, len(sessions), func(_, lo, hi int) {
		// One scratch slab per worker run, not per session: the discard
		// path reuses it across every group in [lo, hi).
		var scratch []float64
		if !req.IncludeFrames {
			p := stepScratch.Get().(*[]float64)
			defer stepScratch.Put(p)
			scratch = *p
		}
		var (
			group [stepGroup]*session
			at    [stepGroup]int // request index of each group member
			bufs  [stepGroup][]float64
		)
		// alive reports whether session i, locked by the caller, is still
		// open; a closed one is released and reported gone.
		alive := func(i int) bool {
			ss := sessions[i]
			if ss.closed {
				ss.mu.Unlock()
				results[i] = StepResult{ID: ss.id, Start: -1, Pos: -1, Gone: true}
				return false
			}
			return true
		}
		// step advances group[:k], whose locks the caller holds, records
		// their results and releases them.
		step := func(k int) {
			for j, ss := range group[:k] {
				res := &results[at[j]]
				*res = StepResult{ID: ss.id, Start: ss.stream.Pos()}
				if req.IncludeFrames {
					res.Frames = make([]float64, req.N)
					bufs[j] = res.Frames
				} else {
					bufs[j] = scratch[j*chunk : (j+1)*chunk]
				}
			}
			s.produce(ctx, group[:k], req.N, bufs[:k], nil)
			for j, ss := range group[:k] {
				results[at[j]].Pos = ss.stream.Pos()
				ss.mu.Unlock()
			}
		}
		var busy []int // sessions whose TryLock failed, stepped last
		for i := lo; i < hi; {
			head := sessions[i]
			head.mu.Lock() // the worker holds no other session lock here
			if !alive(i) {
				i++
				continue
			}
			group[0], at[0] = head, i
			k := 1
			i++
			if _, lanes := head.stream.(*modelspec.Stream); lanes {
				for ; k < stepGroup && i < hi; i++ {
					ss := sessions[i]
					if _, ok := ss.stream.(*modelspec.Stream); !ok {
						break // steps alone, as the next group's head
					}
					if !ss.mu.TryLock() {
						busy = append(busy, i)
						continue
					}
					if alive(i) {
						group[k], at[k] = ss, i
						k++
					}
				}
			}
			step(k)
		}
		for _, i := range busy {
			sessions[i].mu.Lock() // the worker holds no other session lock here
			if alive(i) {
				group[0], at[0] = sessions[i], i
				step(1)
			}
		}
	})
	writeJSON(w, http.StatusOK, results)
}
