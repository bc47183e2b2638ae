package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"vbrsim/internal/core"
	"vbrsim/internal/impsample"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/queue"
)

// JobRequest is the POST /v1/jobs body. Kind selects the computation and
// which fields apply.
type JobRequest struct {
	// Kind is "fit" (run the Section 3 pipeline on Trace), "qsim-mc"
	// (plain Monte-Carlo overflow estimation on Spec), or "qsim-is"
	// (importance-sampling overflow estimation on Spec).
	Kind string `json:"kind"`

	// Trace is the bytes-per-frame record for fit jobs.
	Trace []float64 `json:"trace,omitempty"`

	// Spec is the traffic model for qsim jobs.
	Spec *modelspec.Spec `json:"spec,omitempty"`
	// Utilization sets the service rate as mean/utilization; ignored when
	// Service is given directly.
	Utilization float64 `json:"utilization,omitempty"`
	// Service is the absolute per-slot service rate mu.
	Service float64 `json:"service,omitempty"`
	// Buffer is the overflow threshold b in units of the marginal mean
	// (the paper's normalized buffer size).
	Buffer float64 `json:"buffer,omitempty"`
	// Horizon is the stop time k; 0 means 10*Buffer, the paper's choice.
	Horizon int `json:"horizon,omitempty"`
	// Twist is the qsim-is background mean shift m*; 0 means 1.6.
	Twist float64 `json:"twist,omitempty"`
	// Replications defaults to 1000.
	Replications int `json:"replications,omitempty"`
	// Seed drives the replication sources.
	Seed uint64 `json:"seed,omitempty"`
}

// OverflowResult is queue.Result with JSON-safe fields: NormVar is omitted
// (nil) instead of +Inf when no overflow was observed, since +Inf cannot be
// marshaled.
type OverflowResult struct {
	P            float64  `json:"p"`
	StdErr       float64  `json:"std_err"`
	NormVar      *float64 `json:"norm_var,omitempty"`
	Replications int      `json:"replications"`
	Hits         int      `json:"hits"`
	Service      float64  `json:"service"`
	Buffer       float64  `json:"buffer_abs"`
	Horizon      int      `json:"horizon"`
}

func overflowResult(r queue.Result, service, bufAbs float64, horizon int) *OverflowResult {
	out := &OverflowResult{
		P: r.P, StdErr: r.StdErr,
		Replications: r.Replications, Hits: r.Hits,
		Service: service, Buffer: bufAbs, Horizon: horizon,
	}
	if r.P > 0 {
		nv := r.NormVar
		out.NormVar = &nv
	}
	return out
}

// Job is the public view of a queued computation.
type Job struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	Status   string     `json:"status"` // queued | running | done | failed
	Error    string     `json:"error,omitempty"`
	Result   any        `json:"result,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

type jobState struct {
	mu  sync.Mutex
	job Job
	req JobRequest
}

func (j *jobState) view() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.job
}

// jobPool runs jobs on a bounded worker pool over a bounded queue, so a
// burst of fit requests cannot exhaust memory or starve the stream handlers.
type jobPool struct {
	s       *Server
	queue   chan *jobState
	wg      sync.WaitGroup
	mu      sync.Mutex
	byID    map[string]*jobState
	nextID  uint64
	stopped bool
}

func newJobPool(s *Server, workers, depth int) *jobPool {
	p := &jobPool{
		s:     s,
		queue: make(chan *jobState, depth),
		byID:  make(map[string]*jobState),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(s.baseCtx)
	}
	return p
}

// submit enqueues a job, or reports that the queue is full. The channel send
// happens under p.mu — the queue is buffered so the select never blocks —
// which makes it mutually exclusive with drain's close(p.queue): a submit
// racing a SIGTERM drain gets errDraining instead of panicking on a send to
// a closed channel.
func (p *jobPool) submit(req JobRequest) (*jobState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return nil, errDraining
	}
	p.nextID++
	js := &jobState{
		job: Job{ID: fmt.Sprintf("j%d", p.nextID), Kind: req.Kind, Status: "queued", Created: time.Now()},
		req: req,
	}
	select {
	case p.queue <- js:
		p.byID[js.job.ID] = js
		return js, nil
	default:
		return nil, errQueueFull
	}
}

func (p *jobPool) get(id string) (*jobState, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	js, ok := p.byID[id]
	return js, ok
}

func (p *jobPool) list() []Job {
	p.mu.Lock()
	states := make([]*jobState, 0, len(p.byID))
	for _, js := range p.byID {
		states = append(states, js)
	}
	p.mu.Unlock()
	jobs := make([]Job, len(states))
	for i, js := range states {
		jobs[i] = js.view()
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	return jobs
}

// drain rejects further submissions; already-queued jobs still run (unless
// the base context is canceled, which fails them fast).
func (p *jobPool) drain() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		close(p.queue)
	}
	p.mu.Unlock()
}

func (p *jobPool) worker(ctx context.Context) {
	defer p.wg.Done()
	for js := range p.queue {
		if ctx.Err() != nil {
			js.fail(ctx.Err())
			continue
		}
		start := time.Now()
		js.mu.Lock()
		js.job.Status = "running"
		js.job.Started = &start
		req := js.req
		js.mu.Unlock()

		result, err := runJob(ctx, req, p.s.metrics)
		secs := time.Since(start).Seconds()
		if err != nil {
			js.fail(err)
			p.s.metrics.jobDone(req.Kind, secs, true)
			continue
		}
		done := time.Now()
		js.mu.Lock()
		js.job.Status = "done"
		js.job.Result = result
		js.job.Finished = &done
		js.mu.Unlock()
		p.s.metrics.jobDone(req.Kind, secs, false)
	}
}

func (js *jobState) fail(err error) {
	now := time.Now()
	js.mu.Lock()
	js.job.Status = "failed"
	js.job.Error = err.Error()
	js.job.Finished = &now
	js.mu.Unlock()
}

// runJob executes one job under the pool's context; cancellation propagates
// into the fit's attenuation replications and the estimators' worker loops.
func runJob(ctx context.Context, req JobRequest, mt *metrics) (any, error) {
	switch req.Kind {
	case "fit":
		m, err := core.FitCtx(ctx, req.Trace, core.FitOptions{Seed: req.Seed})
		if err != nil {
			return nil, err
		}
		spec := modelspec.FromModel(m, "fitted", req.Seed)
		return &spec, nil
	case "qsim-mc", "qsim-is":
		return runQsim(ctx, req, mt)
	}
	return nil, fmt.Errorf("unknown job kind %q", req.Kind)
}

func runQsim(ctx context.Context, req JobRequest, mt *metrics) (any, error) {
	if req.Spec == nil {
		return nil, errors.New("qsim job needs a spec")
	}
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	model, tr, err := req.Spec.Source()
	if err != nil {
		return nil, err
	}
	mean := tr.Target.Mean()
	service := req.Service
	if service <= 0 {
		service, err = queue.UtilizationService(mean, req.Utilization)
		if err != nil {
			return nil, fmt.Errorf("need service > 0 or utilization in (0,1) with a finite-mean marginal: %w", err)
		}
	}
	if req.Buffer <= 0 {
		return nil, errors.New("qsim job needs buffer > 0 (units of the marginal mean)")
	}
	bufAbs := req.Buffer * mean
	horizon := req.Horizon
	if horizon <= 0 {
		horizon = int(10 * req.Buffer)
	}
	reps := req.Replications
	if reps <= 0 {
		reps = 1000
	}
	trunc, err := core.TruncatedPlanForCtx(ctx, model, horizon, 0)
	if err != nil {
		return nil, err
	}

	if req.Kind == "qsim-mc" {
		src := core.ArrivalSource{Fast: trunc, Transform: tr}
		res, err := queue.EstimateOverflowCtx(ctx, src, service, bufAbs, horizon,
			queue.MCOptions{Replications: reps, Seed: req.Seed,
				Progress: mt.observeEstimator})
		if err != nil {
			return nil, err
		}
		return overflowResult(res, service, bufAbs, horizon), nil
	}

	twist := req.Twist
	if twist == 0 {
		twist = 1.6
	}
	res, err := impsample.EstimateCtx(ctx, impsample.Config{
		FastPlan: trunc, Transform: tr,
		Service: service, Buffer: bufAbs, Horizon: horizon,
		Twist: twist, Replications: reps, Seed: req.Seed,
		Progress: mt.observeEstimator,
	})
	if err != nil {
		return nil, err
	}
	return overflowResult(res, service, bufAbs, horizon), nil
}

// ---------------------------------------------------------------------------
// HTTP handlers

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decode(w, r, &req) {
		return
	}
	switch req.Kind {
	case "fit", "qsim-mc", "qsim-is":
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown job kind %q", req.Kind))
		return
	}
	js, err := s.jobs.submit(req)
	if err != nil {
		s.metrics.jobsRejected.With(req.Kind).Inc()
		switch {
		case errors.Is(err, errDraining):
			httpError(w, http.StatusServiceUnavailable, err)
		default:
			httpError(w, http.StatusTooManyRequests, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, js.view())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	js, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, js.view())
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}
