// Package client is the Go client for trafficd (internal/server): stream
// creation and frame retrieval, job submission and polling. Frames travel
// in the length-prefixed binary record protocol (application/x-vbrsim-frames,
// float64 little-endian payloads), so values round-trip bit-identically —
// a client-side comparison against offline generation (modelspec.Frames
// with the same spec and seed) is an exact equality test — and a response
// cut off mid-stream is detected by the missing terminator record.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/server"
)

// Client talks to one trafficd instance.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport; defaults to http.DefaultClient.
	HTTP *http.Client
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError decodes the server's {"error": ...} body into a Go error.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		return fmt.Errorf("trafficd: %s (HTTP %d)", body.Error, resp.StatusCode)
	}
	return fmt.Errorf("trafficd: HTTP %d", resp.StatusCode)
}

func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return err
		}
	}
	// Read to EOF (past the encoder's trailing newline) so net/http can
	// return the connection to the pool instead of redialing.
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Healthz reports whether the daemon is live and accepting work.
func (c *Client) Healthz(ctx context.Context) error {
	return c.doJSON(ctx, "GET", "/healthz", nil, nil)
}

// CreateStream opens a session for the spec and returns its state,
// including the (possibly server-assigned) seed.
func (c *Client) CreateStream(ctx context.Context, spec *modelspec.Spec) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.doJSON(ctx, "POST", "/v1/streams", spec, &info)
	return info, err
}

// CreateTrunk opens a superposition session: the trunk spec's weighted
// component streams multiplexed into one aggregate. The returned info
// carries the trunk seed (server-assigned when the spec leaves it 0) and
// the flattened source count; the session serves through the same Frames,
// Step and CloseStream calls as a plain stream.
func (c *Client) CreateTrunk(ctx context.Context, spec *modelspec.TrunkSpec) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.doJSON(ctx, "POST", "/v1/trunks", spec, &info)
	return info, err
}

// Step advances many sessions by n frames in one batched request
// (POST /v1/streams/step). When includeFrames is set the generated frames
// come back per session, bounded by the server's per-step return limit;
// otherwise positions advance with an empty body — the cheap bulk-warm
// path for simulation drivers. Each session may be listed once.
func (c *Client) Step(ctx context.Context, ids []string, n int, includeFrames bool) ([]server.StepResult, error) {
	var results []server.StepResult
	req := server.StepRequest{IDs: ids, N: n, IncludeFrames: includeFrames}
	err := c.doJSON(ctx, "POST", "/v1/streams/step", &req, &results)
	return results, err
}

// Stream returns the session's current state.
func (c *Client) Stream(ctx context.Context, id string) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.doJSON(ctx, "GET", "/v1/streams/"+id, nil, &info)
	return info, err
}

// Streams lists open sessions.
func (c *Client) Streams(ctx context.Context) ([]server.SessionInfo, error) {
	var infos []server.SessionInfo
	err := c.doJSON(ctx, "GET", "/v1/streams", nil, &infos)
	return infos, err
}

// CloseStream deletes the session.
func (c *Client) CloseStream(ctx context.Context, id string) error {
	return c.doJSON(ctx, "DELETE", "/v1/streams/"+id, nil, nil)
}

// Frames reads n frames from the session over the length-prefixed binary
// record protocol (application/x-vbrsim-frames), so values round-trip
// bit-identically and a truncated body is detected by the missing
// terminator record rather than inferred from a length mismatch. from < 0
// continues from the session's current position; otherwise the session
// seeks to the given frame index first (deterministic replay).
func (c *Client) Frames(ctx context.Context, id string, from, n int) ([]float64, error) {
	url := fmt.Sprintf("%s/v1/streams/%s/frames?n=%d", c.BaseURL, id, n)
	if from >= 0 {
		url += "&from=" + strconv.Itoa(from)
	}
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", server.ContentTypeFrames)
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	fr := server.NewFrameReader(resp.Body)
	out := make([]float64, n)
	got := 0
	for got < n {
		k, err := fr.Read(out[got:])
		got += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return out[:got], err
		}
	}
	if got < n {
		return out[:got], fmt.Errorf("stream truncated at %d of %d frames", got, n)
	}
	// The server terminates the body with the protocol trailer after the
	// last requested frame; its absence means the response died in flight.
	var scratch [1]float64
	if _, err := fr.Read(scratch[:]); err != io.EOF {
		if err == nil {
			return out, fmt.Errorf("server sent more than %d requested frames", n)
		}
		return out, err
	}
	// The chunked body's final chunk may trail the trailer record: read to
	// EOF so net/http can return the connection to the pool instead of
	// redialing.
	io.Copy(io.Discard, resp.Body)
	return out, nil
}

// SessionStats returns the session's live statistical self-monitoring
// summary (GET /v1/sessions/{id}/stats): online Hurst estimate, lag
// autocorrelations vs the model-implied reference, marginal quantiles, and
// the drift score. Stats is nil when the daemon runs with statmon disabled.
func (c *Client) SessionStats(ctx context.Context, id string) (server.SessionStats, error) {
	var stats server.SessionStats
	err := c.doJSON(ctx, "GET", "/v1/sessions/"+id+"/stats", nil, &stats)
	return stats, err
}

// Status returns the daemon-level status report (GET /v1/status): uptime,
// drain state, session counts, admission cost, and the statmon fleet
// rollup with the ids of any drifting sessions.
func (c *Client) Status(ctx context.Context) (server.StatusReport, error) {
	var st server.StatusReport
	err := c.doJSON(ctx, "GET", "/v1/status", nil, &st)
	return st, err
}

// SubmitJob enqueues a job and returns its initial (queued) state.
func (c *Client) SubmitJob(ctx context.Context, req server.JobRequest) (server.Job, error) {
	var job server.Job
	err := c.doJSON(ctx, "POST", "/v1/jobs", &req, &job)
	return job, err
}

// Job polls one job.
func (c *Client) Job(ctx context.Context, id string) (server.Job, error) {
	var job server.Job
	err := c.doJSON(ctx, "GET", "/v1/jobs/"+id, nil, &job)
	return job, err
}

// WaitJob polls until the job finishes (done or failed) or ctx expires.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (server.Job, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return job, err
		}
		if job.Status == "done" || job.Status == "failed" {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, ctx.Err()
		case <-time.After(poll):
		}
	}
}
