package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"vbrsim/internal/core"
	"vbrsim/internal/daviesharte"
	"vbrsim/internal/hosking"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/rng"
	"vbrsim/internal/server"
	"vbrsim/internal/statmon"
	"vbrsim/internal/streamblock"
)

// The ladder times each layer of a served frame from outside: it calls the
// layer's public functions on shadow objects — server sessions and offline
// streams opened at the same seed and read at the same positions as the
// request they decompose — and wraps every call in a benchmark-owned span.
// Span names follow the serving phases (seek, fill, tap, encode, write,
// decode), so phase timings recorded inside the server later compare 1:1.
// Nothing inside internal/ is instrumented.

// ladderSessions is the MaxSessions headroom left for the ladder's shadow
// sessions: three readers, then one batch of lifecycle creates.
const ladderSessions = 72

// ladderBatches is how many times each rung is timed; a rung reports its
// median batch, so one preempted batch does not move it.
const ladderBatches = 5

// statmonSampleEvery and statmonMaxScale mirror trafficd's default monitor
// configuration (one served chunk in 32, fit scales up to the 1024-frame
// serve chunk), so the shadow tap does the server's work.
const (
	statmonSampleEvery = 32
	statmonMaxScale    = 1024
	serveChunk         = 1024
)

// sink keeps the kernel loops' results live.
var sink float64

// span is one timed interval of the traced run. Spans of one request share
// req; parent names the span that caused this one.
type span struct {
	req    uint64
	name   string
	parent string
	start  time.Time
	end    time.Time
}

type ladder struct {
	r       *run
	f       *fleet
	spans   []span
	metrics []metric
	req     uint64
}

func (l *ladder) add(name, unit string, v float64) {
	l.metrics = append(l.metrics, metric{Name: name, Value: v, Unit: unit})
}

// next starts a new ladder request id.
func (l *ladder) next() uint64 {
	l.req++
	return l.req
}

// timed runs fn inside one span and returns its duration.
func (l *ladder) timed(req uint64, name, parent string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	l.spans = append(l.spans, span{req: req, name: name, parent: parent, start: start, end: end})
	return end.Sub(start), err
}

// kernel times fn ladderBatches times and returns the median batch
// duration divided by ops, in nanoseconds.
func (l *ladder) kernel(name string, ops float64, fn func()) float64 {
	req := l.next()
	var ts []float64
	for b := 0; b < ladderBatches; b++ {
		d, _ := l.timed(req, name, "", func() error { fn(); return nil })
		ts = append(ts, float64(d))
	}
	return median(ts) / ops
}

func (l *ladder) run() error {
	if err := l.kernels(); err != nil {
		return fmt.Errorf("kernels: %w", err)
	}
	var err error
	if l.r.w.stepRounds {
		err = l.steps()
	} else {
		err = l.reads()
	}
	if err != nil {
		return err
	}
	return l.lifecycle()
}

// kernels times the synthesis kernels of the paper model, the same on
// every workload: rng draws, the truncated-AR recursion, the exact and LUT
// marginal transforms, one Davies-Harte block, the block engine's fill
// (whose excess over the Davies-Harte block is the stitch) and its seek.
func (l *ladder) kernels() error {
	ctx, seed := l.r.ctx, l.r.seed
	model, tr, err := paperSpec.Source()
	if err != nil {
		return err
	}
	trunc, err := core.TruncatedPlanForCtx(ctx, model, 0, 0)
	if err != nil {
		return err
	}

	src := rng.New(seed)
	const norms = 1 << 18
	l.add("rng.norm_ns", "ns", l.kernel("rng.norm", norms, func() {
		for i := 0; i < norms; i++ {
			sink += src.Norm()
		}
	}))

	gen := hosking.NewTruncatedGenerator(trunc, rng.New(seed))
	for gen.Pos() < trunc.Order() {
		gen.Next() // past the warm-up rows: steady-state recursion only
	}
	const steps = 1 << 15
	l.add("hosking.fill_ns_per_frame", "ns/frame", l.kernel("hosking.fill", steps, func() {
		for i := 0; i < steps; i++ {
			sink += gen.Next()
		}
	}))

	xs := make([]float64, 1<<14)
	for i := range xs {
		xs[i] = gen.Next()
	}
	dst := make([]float64, len(xs))
	l.add("transform.exact_ns_per_frame", "ns/frame", l.kernel("transform.exact", float64(len(xs)), func() {
		for i, x := range xs {
			dst[i] = tr.Apply(x)
		}
	}))
	lut, err := tr.NewDefaultLUT()
	if err != nil {
		return err
	}
	const lutPasses = 16
	l.add("transform.lut_ns_per_frame", "ns/frame", l.kernel("transform.lut", lutPasses*float64(len(xs)), func() {
		for p := 0; p < lutPasses; p++ {
			lut.ApplyTo(dst, xs)
		}
	}))

	eng, err := streamblock.NewEngine(model, trunc, streamblock.Config{})
	if err != nil {
		return err
	}
	plan, err := daviesharte.NewPlan(model, streamblock.DefaultTotal, daviesharte.Options{AllowApprox: true})
	if err != nil {
		return err
	}
	var scratch daviesharte.Scratch
	path := make([]float64, streamblock.DefaultTotal)
	dsrc := rng.New(seed)
	const paths = 8
	// Per emitted frame: a block of DefaultTotal carries Block() new frames.
	dh := l.kernel("daviesharte.fill", paths*float64(eng.Block()), func() {
		for i := 0; i < paths; i++ {
			plan.PathRealInto(path, &scratch, dsrc)
		}
	})
	l.add("daviesharte.fill_ns_per_frame", "ns/frame", dh)

	st := eng.NewStream(seed)
	defer st.Close()
	buf := make([]float64, 4096)
	const fills = 16
	sb := l.kernel("streamblock.fill", fills*float64(len(buf)), func() {
		for i := 0; i < fills; i++ {
			st.Fill(buf)
		}
	})
	l.add("streamblock.fill_ns_per_frame", "ns/frame", sb)
	l.add("streamblock.stitch_ns_per_frame", "ns/frame", sb-dh)

	seeker := eng.NewStream(seed)
	defer seeker.Close()
	g := inputStream(seed, "ladder-kernel-seeks")
	const seeks = 8
	l.add("streamblock.seek_us", "us", l.kernel("streamblock.seek", seeks, func() {
		for i := 0; i < seeks; i++ {
			seeker.Seek(g.intn(churnSeekSpan))
		}
	})/1e3)
	return nil
}

// shadowStream opens the offline stream and the statmon monitor a server
// session of spec would have.
func shadowStream(r *run, spec modelspec.Spec) (*modelspec.Stream, *statmon.Monitor, error) {
	st, err := spec.OpenCtx(r.ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	ref := statmon.Ref{
		H:          spec.TargetHurst(),
		AsymH:      spec.ACF.AsymptoticHurst(),
		ImpliedACF: st.ImpliedACF(statmonMaxScale + 1),
		Mean:       st.MeanRate(),
	}
	if m := st.Marginal(); m != nil {
		ref.Quantile = m.Quantile
	}
	return st, statmon.New(statmon.Config{SampleEvery: statmonSampleEvery, MaxScale: statmonMaxScale}, ref), nil
}

// batchStats collects one value per ladder batch for each request rung.
type batchStats map[string][]float64

func (b batchStats) add(name string, v float64) { b[name] = append(b[name], v) }

// rung is one timed step of a decomposed request. parent names the rung it
// is part of: the spans are run one after another on shadow objects, so a
// child's interval is not inside its parent's.
type rung struct {
	name, parent string
	do           func() error
}

// request runs one decomposed request: every rung in order, back to back,
// so that a burst of co-tenant load slows all the rungs of a request alike.
// Each rung gets a span under one request id and adds its duration to sum.
func (l *ladder) request(sum map[string]time.Duration, rungs []rung) error {
	req := l.next()
	for _, g := range rungs {
		d, err := l.timed(req, g.name, g.parent, g.do)
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		sum[g.name] += d
	}
	return nil
}

// reads decomposes the workload's frames read. Three server sessions at
// one seed serve the client call, the raw round trip and the direct
// ServeHTTP call; an offline stream and monitor at the same seed give the
// seek, fill, tap and encode rungs; the captured raw body gives the decode
// rung. Every rung walks the same positions (sequential, or the seeded
// random from= positions of session-churn), and each request checks that
// the client, the decoded raw body and the offline stream agree.
func (l *ladder) reads() error {
	r, f := l.r, l.f
	ctx, n, reps := r.ctx, r.w.frames, r.w.ladderReps
	spec := r.w.spec(inputStream(r.seed, "ladder").seed())
	cn := f.conns[0]
	var ids [3]string
	for i := range ids {
		info, err := cn.c.CreateStream(ctx, &spec)
		if err != nil {
			return err
		}
		ids[i] = info.ID
		defer cn.c.CloseStream(ctx, info.ID)
	}
	shadow, mon, err := shadowStream(r, spec)
	if err != nil {
		return err
	}
	defer shadow.Close()

	g := inputStream(r.seed, "ladder-seeks")
	var body, enc []byte
	frames := make([]float64, n)
	decoded := make([]float64, n)
	w := &discardWriter{}
	stats := batchStats{}
	for b := 0; b < ladderBatches; b++ {
		sum := map[string]time.Duration{}
		for i := 0; i < reps; i++ {
			from := -1
			if r.w.seekReads {
				from = g.intn(churnSeekSpan - n)
			}
			var got []float64
			var start int
			rungs := []rung{
				{"request", "", func() (err error) {
					got, err = cn.c.Frames(ctx, ids[0], from, n)
					return err
				}},
				{"write", "request", func() (err error) {
					body, err = rawRequest(cn, "GET", framesURL(f.h.base, ids[1], from, n), nil, body[:0])
					return err
				}},
				{"handler", "write", func() error {
					return serveDirect(f.h.srv, w, framesRequest(ids[2], from, n), http.StatusOK)
				}},
			}
			if from >= 0 {
				rungs = append(rungs, rung{"seek", "handler", func() error { return shadow.SeekCtx(ctx, from) }})
			}
			rungs = append(rungs,
				rung{"fill", "handler", func() error {
					start = shadow.Pos()
					for o := 0; o < n; o += serveChunk {
						shadow.Fill(frames[o:min(o+serveChunk, n)])
					}
					return nil
				}},
				rung{"tap", "handler", func() error {
					for o := 0; o < n; o += serveChunk {
						mon.Observe(int64(start+o), frames[o:min(o+serveChunk, n)])
					}
					return nil
				}},
				rung{"encode", "handler", func() error {
					for o := 0; o < n; o += serveChunk {
						enc = server.AppendFrameRecord(enc[:0], frames[o:min(o+serveChunk, n)])
					}
					return nil
				}},
				rung{"decode", "request", func() error { return decodeFrames(body, decoded) }},
			)
			if err := l.request(sum, rungs); err != nil {
				return err
			}
			if h := frameHash(frames); frameHash(got) != h || frameHash(decoded) != h {
				return fmt.Errorf("shadow request at %d: client, raw body and offline stream disagree", start)
			}
		}
		perReq := func(name string) float64 { return float64(sum[name]) / float64(reps) }
		perFrame := func(name string) float64 { return perReq(name) / float64(n) }
		stats.add("fill", perFrame("fill"))
		stats.add("tap", perFrame("tap"))
		stats.add("encode", perFrame("encode"))
		stats.add("handler", perReq("handler"))
		stats.add("self", selfTime(perReq("handler")-perReq("seek"), perFrame("fill")+perFrame("tap")+perFrame("encode"), n, 1))
		stats.add("write", perReq("write")-perReq("handler"))
		stats.add("decode", perFrame("decode"))
		stats.add("residual", residualPct(perReq("request"), perReq("write"), perReq("decode")))
	}
	l.requestMetrics(stats)
	return nil
}

// steps decomposes step-fleet's round over the real fleet: client.Step, the
// raw round trip, ServeHTTP direct, and fill and tap of every session's n
// frames on an offline truncated-engine stream; decode is the client's JSON
// decode of the step response. The handler spreads fill and tap over
// GOMAXPROCS step workers, so self time divides their share by that width.
// A step response carries no frames, so encode is timed for the record but
// is not part of the handler.
func (l *ladder) steps() error {
	r, f := l.r, l.f
	ctx, n, reps := r.ctx, r.w.frames, r.w.ladderReps
	cn := f.conns[0]
	body, err := json.Marshal(server.StepRequest{IDs: f.ids, N: n})
	if err != nil {
		return err
	}
	shadow, mon, err := shadowStream(r, r.w.spec(inputStream(r.seed, "ladder").seed()))
	if err != nil {
		return err
	}
	defer shadow.Close()
	frames := make([][]float64, len(f.ids))
	for i := range frames {
		frames[i] = make([]float64, n)
	}
	starts := make([]int, len(f.ids))
	var out, enc []byte
	w := &discardWriter{}
	stats := batchStats{}
	for b := 0; b < ladderBatches; b++ {
		sum := map[string]time.Duration{}
		for i := 0; i < reps; i++ {
			err := l.request(sum, []rung{
				{"request", "", func() error {
					_, err := cn.c.Step(ctx, f.ids, n, false)
					return err
				}},
				{"write", "request", func() (err error) {
					out, err = rawRequest(cn, "POST", f.h.base+"/v1/streams/step", body, out[:0])
					return err
				}},
				{"handler", "write", func() error {
					return serveDirect(f.h.srv, w, jsonRequest("POST", "/v1/streams/step", body), http.StatusOK)
				}},
				{"fill", "handler", func() error {
					for k, fr := range frames {
						starts[k] = shadow.Pos()
						shadow.Fill(fr)
					}
					return nil
				}},
				{"tap", "handler", func() error {
					for k, fr := range frames {
						mon.Observe(int64(starts[k]), fr)
					}
					return nil
				}},
				{"encode", "handler", func() error {
					for _, fr := range frames {
						enc = server.AppendFrameRecord(enc[:0], fr)
					}
					return nil
				}},
				{"decode", "request", func() error {
					var res []server.StepResult
					return json.Unmarshal(out, &res)
				}},
			})
			if err != nil {
				return err
			}
		}
		roundFrames := len(f.ids) * n
		perReq := func(name string) float64 { return float64(sum[name]) / float64(reps) }
		perFrame := func(name string) float64 { return perReq(name) / float64(roundFrames) }
		stats.add("fill", perFrame("fill"))
		stats.add("tap", perFrame("tap"))
		stats.add("encode", perFrame("encode"))
		stats.add("handler", perReq("handler"))
		stats.add("self", selfTime(perReq("handler"), perFrame("fill")+perFrame("tap"), roundFrames, runtime.GOMAXPROCS(0)))
		stats.add("write", perReq("write")-perReq("handler"))
		stats.add("decode", perFrame("decode"))
		stats.add("residual", residualPct(perReq("request"), perReq("write"), perReq("decode")))
	}
	l.requestMetrics(stats)
	return nil
}

// requestMetrics reports the request rungs' medians over the batches.
func (l *ladder) requestMetrics(s batchStats) {
	l.add("modelspec.fill_ns_per_frame", "ns/frame", median(s["fill"]))
	l.add("statmon.tap_ns_per_frame", "ns/frame", median(s["tap"]))
	l.add("server.encode_ns_per_frame", "ns/frame", median(s["encode"]))
	l.add("server.handler_us", "us", median(s["handler"])/1e3)
	l.add("server.self_us", "us", median(s["self"])/1e3)
	l.add("http.write_us", "us", median(s["write"])/1e3)
	l.add("client.decode_ns_per_frame", "ns/frame", median(s["decode"]))
	l.add("ladder.residual_pct", "%", median(s["residual"]))
}

// lifecycle times opening the workload's stream offline (modelspec
// OpenCtx, warm plan cache) and creating and deleting a session of it
// through ServeHTTP.
func (l *ladder) lifecycle() error {
	r, f := l.r, l.f
	reps := r.w.createReps
	g := inputStream(r.seed, "ladder-lifecycle")
	var open, create, del []float64
	for b := 0; b < ladderBatches; b++ {
		req := l.next()
		specs := make([]modelspec.Spec, reps)
		bodies := make([][]byte, reps)
		for i := range specs {
			specs[i] = r.w.spec(g.seed())
			var err error
			if bodies[i], err = json.Marshal(&specs[i]); err != nil {
				return err
			}
		}
		d, err := l.timed(req, "open", "", func() error {
			for i := range specs {
				st, err := specs[i].OpenCtx(r.ctx, 0)
				if err != nil {
					return err
				}
				st.Close()
			}
			return nil
		})
		if err != nil {
			return err
		}
		open = append(open, float64(d)/float64(reps))

		recs := make([]*httptest.ResponseRecorder, reps)
		d, _ = l.timed(req, "create", "", func() error {
			for i, body := range bodies {
				recs[i] = httptest.NewRecorder()
				f.h.srv.ServeHTTP(recs[i], jsonRequest("POST", "/v1/streams", body))
			}
			return nil
		})
		create = append(create, float64(d)/float64(reps))
		ids := make([]string, reps)
		for i, rc := range recs {
			var info server.SessionInfo
			if rc.Code != http.StatusCreated || json.Unmarshal(rc.Body.Bytes(), &info) != nil {
				return fmt.Errorf("direct create: HTTP %d: %s", rc.Code, bytes.TrimSpace(rc.Body.Bytes()))
			}
			ids[i] = info.ID
		}
		w := &discardWriter{}
		d, err = l.timed(req, "delete", "", func() error {
			for _, id := range ids {
				if err := serveDirect(f.h.srv, w, jsonRequest("DELETE", "/v1/streams/"+id, nil), http.StatusNoContent); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		del = append(del, float64(d)/float64(reps))
	}
	l.add("modelspec.open_us", "us", median(open)/1e3)
	l.add("server.create_us", "us", median(create)/1e3)
	l.add("server.delete_us", "us", median(del)/1e3)
	return nil
}

// framesURL is the URL client.Frames requests.
func framesURL(base, id string, from, n int) string {
	u := fmt.Sprintf("%s/v1/streams/%s/frames?n=%d", base, id, n)
	if from >= 0 {
		u += "&from=" + strconv.Itoa(from)
	}
	return u
}

// rawRequest is the loopback round trip without the client's decode: send,
// then read the whole body into buf.
func rawRequest(cn *conn, method, url string, body, buf []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	} else {
		req.Header.Set("Accept", server.ContentTypeFrames)
	}
	resp, err := cn.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := bytes.NewBuffer(buf)
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	return out.Bytes(), nil
}

// decodeFrames decodes a captured frames body of len(out) frames as
// client.Frames does, terminator record included.
func decodeFrames(body []byte, out []float64) error {
	fr := server.NewFrameReader(bytes.NewReader(body))
	got := 0
	for got < len(out) {
		k, err := fr.Read(out[got:])
		got += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if got < len(out) {
		return fmt.Errorf("body ends after %d of %d frames", got, len(out))
	}
	var scratch [1]float64
	if _, err := fr.Read(scratch[:]); err != io.EOF {
		return fmt.Errorf("body has no terminator after %d frames", got)
	}
	return nil
}

// framesRequest builds a frames read for ServeHTTP without going through a
// connection.
func framesRequest(id string, from, n int) *http.Request {
	q := "n=" + strconv.Itoa(n)
	if from >= 0 {
		q += "&from=" + strconv.Itoa(from)
	}
	return &http.Request{
		Method:     "GET",
		URL:        &url.URL{Path: "/v1/streams/" + id + "/frames", RawQuery: q},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Accept": []string{server.ContentTypeFrames}},
		Host:       "benchmark",
		RemoteAddr: "127.0.0.1:1",
	}
}

func jsonRequest(method, path string, body []byte) *http.Request {
	req := &http.Request{
		Method:     method,
		URL:        &url.URL{Path: path},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       http.NoBody,
		Host:       "benchmark",
		RemoteAddr: "127.0.0.1:1",
	}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	return req
}

// serveDirect calls the server's handler in-process, without a connection,
// and checks the status code.
func serveDirect(srv *server.Server, w *discardWriter, req *http.Request, want int) error {
	w.reset()
	srv.ServeHTTP(w, req)
	if w.code != want {
		return fmt.Errorf("direct %s %s: HTTP %d, want %d", req.Method, req.URL.Path, w.code, want)
	}
	return nil
}

// discardWriter is a ResponseWriter that keeps only the status code, so
// the handler rung times the handler and not a response buffer.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

func (w *discardWriter) reset() {
	w.code = 0
	clear(w.h)
}
