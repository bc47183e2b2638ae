package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vbrsim/internal/modelspec"
)

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func paperSpec(seed uint64) modelspec.Spec {
	s := modelspec.Paper()
	s.Seed = seed
	return s
}

func createStream(t *testing.T, base string, spec modelspec.Spec) SessionInfo {
	t.Helper()
	resp := postJSON(t, base+"/v1/streams", &spec)
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("create stream: %d %s", resp.StatusCode, body)
	}
	return decodeJSON[SessionInfo](t, resp)
}

func readNDJSON(t *testing.T, url string) []float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("frames: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var out []float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStreamMatchesOfflineAndResumes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := paperSpec(1234)
	info := createStream(t, ts.URL, spec)
	if info.Seed != 1234 || info.Pos != 0 {
		t.Fatalf("session info: %+v", info)
	}

	got := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=300", ts.URL, info.ID))
	if len(got) != 300 {
		t.Fatalf("got %d frames, want 300", len(got))
	}
	want, err := spec.Frames(context.Background(), 0, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("frame %d: server %v, offline %v", i, got[i], want[i])
		}
	}

	// A second read continues where the first stopped.
	got2 := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=200", ts.URL, info.ID))
	for i := range got2 {
		if got2[i] != want[300+i] {
			t.Fatalf("continued frame %d: %v, want %v", 300+i, got2[i], want[300+i])
		}
	}

	// An explicit from= replays a past range (reconnect semantics).
	replay := readNDJSON(t, fmt.Sprintf("%s/v1/streams/%s/frames?n=100&from=100", ts.URL, info.ID))
	for i := range replay {
		if replay[i] != want[100+i] {
			t.Fatalf("replayed frame %d: %v, want %v", 100+i, replay[i], want[100+i])
		}
	}
}

func TestSessionCapAndDelete(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSessions: 2})
	a := createStream(t, ts.URL, paperSpec(1))
	createStream(t, ts.URL, paperSpec(2))

	resp := postJSON(t, ts.URL+"/v1/streams", paperSpec(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/streams/"+a.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}

	// Capacity freed: creation succeeds again.
	createStream(t, ts.URL, paperSpec(4))

	if resp, err := http.Get(ts.URL + "/v1/streams/" + a.ID); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("deleted session GET: %d", resp.StatusCode)
		}
	}
}

func TestAutoSeedDeterministicDerivation(t *testing.T) {
	_, ts := newTestServer(t, Options{Seed: 9})
	spec := modelspec.Paper() // Seed 0: server assigns
	a := createStream(t, ts.URL, spec)
	b := createStream(t, ts.URL, spec)
	if a.Seed == 0 || b.Seed == 0 {
		t.Fatalf("auto seeds not assigned: %+v %+v", a, b)
	}
	if a.Seed == b.Seed {
		t.Fatalf("distinct sessions got the same auto seed %d", a.Seed)
	}
	if a.Seed != deriveSeed(9, 1) || b.Seed != deriveSeed(9, 2) {
		t.Fatalf("seed derivation not deterministic: %d %d", a.Seed, b.Seed)
	}
}

func TestMetricsPlanCacheHitsAcrossStreams(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	createStream(t, ts.URL, paperSpec(100))
	// The second stream for the same spec must hit the shared plan cache.
	createStream(t, ts.URL, paperSpec(101))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, name := range []string{
		"vbrsim_sessions_active 2",
		"vbrsim_frames_streamed_total",
		"vbrsim_plan_cache_hits_total",
		"vbrsim_plan_cache_misses_total",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("metrics missing %q:\n%s", name, text)
		}
	}
	hits := metricValue(t, text, "vbrsim_plan_cache_hits_total")
	if hits < 1 {
		t.Fatalf("plan cache hits = %v after second stream, want >= 1", hits)
	}
}

func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found:\n%s", name, text)
	return 0
}

func waitJob(t *testing.T, base, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		job := decodeJSON[Job](t, resp)
		if job.Status == "done" || job.Status == "failed" {
			return job
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

func TestJobQsim(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := paperSpec(5)
	for _, kind := range []string{"qsim-mc", "qsim-is"} {
		resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
			Kind: kind, Spec: &spec,
			Utilization: 0.8, Buffer: 5, Horizon: 50, Replications: 50, Seed: 2,
		})
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("%s submit: %d %s", kind, resp.StatusCode, body)
		}
		job := decodeJSON[Job](t, resp)
		job = waitJob(t, ts.URL, job.ID)
		if job.Status != "done" {
			t.Fatalf("%s job: %+v", kind, job)
		}
		res, ok := job.Result.(map[string]any)
		if !ok {
			t.Fatalf("%s result type %T", kind, job.Result)
		}
		p, ok := res["p"].(float64)
		if !ok || p < 0 || p > 1 {
			t.Fatalf("%s estimate p = %v", kind, res["p"])
		}
	}
}

func TestJobFit(t *testing.T) {
	if testing.Short() {
		t.Skip("fit job in -short mode")
	}
	_, ts := newTestServer(t, Options{})
	spec := paperSpec(6)
	trace, err := spec.Frames(context.Background(), 0, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kind: "fit", Trace: trace, Seed: 1})
	job := decodeJSON[Job](t, resp)
	job = waitJob(t, ts.URL, job.ID)
	if job.Status != "done" {
		t.Fatalf("fit job: %+v", job)
	}
	data, err := json.Marshal(job.Result)
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := modelspec.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("fit result is not a valid spec: %v", err)
	}
	if fitted.H <= 0.5 || fitted.H >= 1 {
		t.Fatalf("fitted H = %v", fitted.H)
	}
}

func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kind: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// qsim without a spec fails at run time, visible when polled.
	resp = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kind: "qsim-mc", Buffer: 5})
	job := decodeJSON[Job](t, resp)
	job = waitJob(t, ts.URL, job.ID)
	if job.Status != "failed" || job.Error == "" {
		t.Fatalf("spec-less qsim: %+v", job)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	createStream(t, ts.URL, paperSpec(8))
	s.BeginDrain()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz while draining: %d", resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/streams", paperSpec(9))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream create while draining: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kind: "fit"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job submit while draining: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Existing sessions still stream during drain.
	s2, _ := s.getSession("s1")
	if s2 == nil {
		t.Fatal("session lost on drain")
	}
}

// Submissions racing a drain must either enqueue or get errDraining /
// errQueueFull — never panic on a send to the closed queue channel.
func TestJobSubmitDrainRace(t *testing.T) {
	s := New(Options{JobQueueDepth: 4})
	defer s.Close()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				_, err := s.jobs.submit(JobRequest{Kind: "qsim-mc"})
				if errors.Is(err, errDraining) {
					return
				}
			}
		}()
	}
	close(start)
	s.jobs.drain()
	wg.Wait()
	if _, err := s.jobs.submit(JobRequest{Kind: "qsim-mc"}); !errors.Is(err, errDraining) {
		t.Fatalf("post-drain submit: %v, want errDraining", err)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := createStream(t, ts.URL, paperSpec(10))

	for _, url := range []string{
		ts.URL + "/v1/streams/" + info.ID + "/frames",                    // missing n
		ts.URL + "/v1/streams/" + info.ID + "/frames?n=-5",               // bad n
		ts.URL + "/v1/streams/" + info.ID + "/frames?n=1&from=-2",        // bad from
		ts.URL + "/v1/streams/" + info.ID + "/frames?n=1&from=999999999", // seek too far ahead
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", url, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/streams/nope/frames?n=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %d", resp.StatusCode)
	}

	// Invalid spec rejected with 400.
	bad := postJSON(t, ts.URL+"/v1/streams", map[string]any{"acf": map[string]any{"weights": []float64{1, 2}, "rates": []float64{0.1}, "l": 0.9, "beta": 0.2, "knee": 60}})
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", bad.StatusCode)
	}
	bad.Body.Close()
}
