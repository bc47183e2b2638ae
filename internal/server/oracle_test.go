package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"vbrsim/internal/hosking"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/trunk"
)

// The server oracle is the one check of the serving contract: a session's
// frames are a pure function of (spec, seed, frame index). Op sequences run
// against a real Server over httptest and, op by op, against a sequential
// oracle that predicts every response: the status of each create
// (admission.reserve's rules over the same sums), read, step, delete and
// eviction; the exact bytes of every frames body; the X-Stream-Start and
// X-Stream-Seed headers, every StepResult and SessionInfo. Each session's
// frames come from an offline twin opened as Spec.Frames opens it (or by
// trunk.Open) and only ever read forward from frame 0, so seeks, step
// groups, worker fan-out and chunking on the server are all checked against
// plain playback. After the last op every session is deleted and the
// server's books must be back where they started.

// opKind is what one op does.
type opKind uint8

const (
	opCreate     opKind = iota // POST /v1/streams or /v1/trunks
	opFrames                   // GET /v1/streams/{id}/frames
	opDisconnect               // the same read, hung up after its first chunk
	opStep                     // POST /v1/streams/step
	opInfo                     // GET /v1/streams/{id}
	opDelete                   // DELETE /v1/streams/{id}
	opEvict                    // one idle sweep with IdleTimeout 0: every idle session
	opUnknown                  // frames, info, delete and step on an id never assigned
	numOpKinds
)

func (k opKind) String() string {
	return [numOpKinds]string{"create", "frames", "disconnect", "step", "info", "delete", "evict", "unknown"}[k]
}

// opWeight is each kind's share of the 256 values of an op's first byte,
// so random bytes make mostly reads and steps.
var opWeight = [numOpKinds]int{36, 70, 14, 74, 28, 24, 4, 6}

// op is one client action. A session reference (ref, refs) below 0x80 is
// a creation ordinal: the (ref mod created)-th session a create returned,
// live or not. From 0x80 up it picks among the live sessions. An op whose
// reference finds no session is skipped.
type op struct {
	kind    opKind
	spec    int     // opCreate: an oracleSpec index, or specTrunk
	seed    uint16  // opCreate: 0 lets the server derive the seed
	ref     uint8   // opFrames, opDisconnect, opInfo, opDelete
	refs    []uint8 // opStep
	from    int     // opFrames, opDisconnect: -1 continues from the session's position
	n       int     // frames per read, or per session per step
	records bool    // opFrames, opDisconnect: format=frames, else format=ndjson
	include bool    // opStep: include_frames
	dedupe  bool    // opStep: drop refs that resolve to a session already listed
	fleet   bool    // opStep: list every live session instead, grouped by spec
}

const (
	maxOpFrames = 4096    // n of a read or step op
	maxOpFrom   = 1 << 14 // explicit from=: a truncated seek replays from frame 0
	maxOpIDs    = 16      // ids in a step op
)

// decodeOps reads an op sequence from b. Every byte string is one: missing
// bytes read as 0. After the kind byte (opWeight) the layout is: create
// spec (createSpecs), seed(2); frames and disconnect ref, flags (1 explicit
// from, 2 records), n(2), from(2) when flagged; step count-1, flags (1
// include, 2 dedupe, 4 fleet), n(2), refs; info and delete ref. The script
// helpers below write the same layout.
func decodeOps(b []byte) []op {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	u16 := func() int { return int(next())<<8 | int(next()) }
	var ops []op
	for len(b) > 0 {
		var p op
		for v := int(next()); v >= opWeight[p.kind]; p.kind++ {
			v -= opWeight[p.kind]
		}
		switch p.kind {
		case opCreate:
			p.spec = createSpecs[int(next())%len(createSpecs)]
			p.seed = uint16(u16())
		case opFrames, opDisconnect:
			p.ref = next()
			flags := next()
			p.records = flags&2 != 0
			p.n = 1 + u16()%maxOpFrames
			if p.kind == opDisconnect {
				p.n = streamChunk + 1 + (p.n-1)%(maxOpFrames-streamChunk)
			}
			p.from = -1
			if flags&1 != 0 {
				p.from = u16() % (maxOpFrom + 1)
			}
		case opStep:
			p.refs = make([]uint8, 1+int(next())%maxOpIDs)
			flags := next()
			p.include, p.dedupe, p.fleet = flags&1 != 0, flags&2 != 0, flags&4 != 0
			p.n = 1 + u16()%maxOpFrames
			for i := range p.refs {
				p.refs[i] = next()
			}
		case opInfo, opDelete:
			p.ref = next()
		}
		ops = append(ops, p)
	}
	return ops
}

// randomOps decodes n ops from seeded random bytes.
func randomOps(seed uint64, n int) []op {
	rng := rand.New(rand.NewPCG(seed, 0x0acc1e))
	b := make([]byte, 8*n)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return decodeOps(b)[:n]
}

// The specs a create picks from: the truncated engine three ways (the
// paper model; its ACF under a gamma marginal, which shares its
// truncation; FGN), the block engine, gop, tes, and testTrunkSpec's trunk.
const (
	specPaper = iota
	specGamma
	specFGN
	specBlock
	specGOP
	specTES
	specTrunk
)

// createSpecs maps a create's spec byte to a spec. The paper truncation
// has half the slots, so a fleet of random sessions forms full lane groups.
var createSpecs = [...]int{specPaper, specGamma, specFGN, specBlock, specGOP, specTES, specTrunk, specPaper, specGamma, specPaper}

func oracleSpec(i int) modelspec.Spec {
	s := modelspec.Paper()
	switch i {
	case specGamma:
		s.Marginal = &modelspec.MarginalSpec{Kind: "gamma", Shape: 4, Scale: 4000}
	case specFGN:
		s = modelspec.Spec{ACF: modelspec.ACFSpec{Kind: modelspec.ACFFGN, H: 0.8}}
	case specBlock:
		s.Engine = modelspec.EngineBlock
	case specGOP:
		s = modelspec.Spec{Engine: modelspec.EngineGOP, GOP: &modelspec.GOPSpec{}}
	case specTES:
		s = tesTestSpec(0)
	}
	return s
}

// oracleSettings are the step fan-out and statmon settings a sequence runs
// under: one worker with statmon off, and three with every chunk tapped.
// Both must serve the same bits. -short runs the second only.
func oracleSettings() [][2]int {
	if testing.Short() {
		return [][2]int{{3, 1}}
	}
	return [][2]int{{1, -1}, {3, 1}}
}

// oracleSession is the oracle's model of one session.
type oracleSession struct {
	info   SessionInfo // what GET /v1/streams/{id} must answer, Created aside
	spec   int
	cost   float64
	alive  bool
	twin   frameStream
	frames []float64 // everything the twin has produced, from frame 0
}

// want returns the session's frames [from, from+n), playing the twin
// forward as far as they reach.
func (ses *oracleSession) want(from, n int) []float64 {
	if end := from + n; end > len(ses.frames) {
		ses.frames = slices.Grow(ses.frames, end-len(ses.frames))
		ses.twin.Fill(ses.frames[len(ses.frames):end])
		ses.frames = ses.frames[:end]
	}
	return ses.frames[from : from+n]
}

// oracle runs ops against one server and checks each response.
type oracle struct {
	srv    *Server
	base   string
	client *http.Client
	fatalf func(format string, args ...any)
	where  string // the op under check, prefixed to every failure

	// shared marks a client that shares the server with others: it
	// predicts neither ids nor derived seeds nor admission, and its creates
	// must get in (pinned seeds, a budget that cannot bind).
	shared bool

	// The admission model: admission.reserve's rules over the same sums.
	used    float64
	open    int
	rejects map[string]float64 // by reason

	ordinal uint64 // auto-seeded creates, admitted or not
	nextID  uint64 // admitted creates
	all     []*oracleSession
}

func newOracle(s *Server, ts *httptest.Server, fatalf func(string, ...any)) *oracle {
	return &oracle{srv: s, base: ts.URL, client: ts.Client(), fatalf: fatalf, rejects: make(map[string]float64)}
}

func (o *oracle) failf(format string, args ...any) {
	o.fatalf("%s: %s", o.where, fmt.Sprintf(format, args...))
}

// send makes one request, fails unless it answers code, and returns the
// response's headers and whole body; or, given a limit ≥ 0, only that many
// body bytes, hanging up on the rest.
func (o *oracle) send(limit, code int, method, path string, body []byte) (http.Header, []byte) {
	req, err := http.NewRequest(method, o.base+path, bytes.NewReader(body))
	if err != nil {
		o.failf("%v", err)
	}
	resp, err := o.client.Do(req)
	if err != nil {
		o.failf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var data []byte
	if limit >= 0 && resp.StatusCode == code {
		data = make([]byte, limit)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		o.failf("%s %s: reading the body: %v", method, path, err)
	}
	if resp.StatusCode != code {
		o.failf("%s %s: HTTP %d %s, oracle says %d", method, path, resp.StatusCode, bytes.TrimSpace(data), code)
	}
	return resp.Header, data
}

func (o *oracle) live() []*oracleSession {
	return slices.DeleteFunc(slices.Clone(o.all), func(ses *oracleSession) bool { return !ses.alive })
}

func (o *oracle) resolve(ref uint8) *oracleSession {
	pool := o.all
	if ref >= 0x80 {
		pool = o.live()
	}
	if len(pool) == 0 {
		return nil
	}
	return pool[int(ref&0x7f)%len(pool)]
}

func (o *oracle) exec(p op) {
	ses := o.resolve(p.ref)
	switch {
	case p.kind == opCreate:
		o.create(p)
	case p.kind == opStep:
		o.step(p)
	case p.kind == opEvict:
		live := o.live()
		if n := o.srv.evictIdleOnce(); n != len(live) {
			o.failf("the sweep evicted %d sessions, oracle says %d", n, len(live))
		}
		for _, ses := range live {
			o.release(ses)
		}
	case p.kind == opUnknown:
		o.send(-1, http.StatusNotFound, "GET", "/v1/streams/s0/frames?n=1", nil)
		o.send(-1, http.StatusNotFound, "GET", "/v1/streams/s0", nil)
		o.send(-1, http.StatusNotFound, "DELETE", "/v1/streams/s0", nil)
		o.send(-1, http.StatusNotFound, "POST", "/v1/streams/step", []byte(`{"ids":["s0"],"n":1}`))
	case ses == nil:
	case p.kind == opInfo:
		if got, ok := o.infoOf(ses); ok {
			o.checkInfo(ses, got)
		}
	case p.kind == opDelete && !ses.alive:
		o.send(-1, http.StatusNotFound, "DELETE", "/v1/streams/"+ses.info.ID, nil)
	case p.kind == opDelete:
		o.send(-1, http.StatusNoContent, "DELETE", "/v1/streams/"+ses.info.ID, nil)
		o.release(ses)
	default:
		o.read(ses, p)
	}
}

// admit mirrors admission.reserve: "" admits cost, anything else is the
// reject reason.
func (o *oracle) admit(cost float64) string {
	budget := o.srv.opt.MaxCost
	remaining := budget - o.used
	switch {
	case o.open >= o.srv.opt.MaxSessions:
		return rejectCap
	case cost > remaining:
		return rejectBudget
	case o.used > pressureKnee*budget && cost > remaining/2:
		return rejectPressure
	}
	o.used += cost
	o.open++
	return ""
}

func (o *oracle) release(ses *oracleSession) {
	if !o.shared {
		o.used -= ses.cost
		o.open--
	}
	ses.alive = false
	ses.twin.Close()
}

func (o *oracle) create(p op) {
	ses := &oracleSession{alive: true, spec: p.spec, info: SessionInfo{Seed: uint64(p.seed)}}
	var (
		path = "/v1/streams"
		body []byte
		err  error
		open func(context.Context) (frameStream, error)
	)
	if p.spec == specTrunk {
		spec := testTrunkSpec(ses.info.Seed)
		path = "/v1/trunks"
		body, err = json.Marshal(&spec)
		ses.info.Name, ses.info.Kind, ses.info.Sources = cmp.Or(spec.Name, sessionKindTrunk), sessionKindTrunk, spec.NumSources()
		ses.cost = spec.Cost()
		open = func(ctx context.Context) (frameStream, error) {
			spec.Seed = ses.info.Seed
			return trunk.Open(ctx, &spec, trunk.Options{})
		}
	} else {
		spec := oracleSpec(p.spec)
		spec.Seed = ses.info.Seed
		body, err = json.Marshal(&spec)
		ses.info.Name, ses.cost = cmp.Or(spec.Name, "stream"), spec.Cost()
		open = func(ctx context.Context) (frameStream, error) {
			spec.Seed = ses.info.Seed
			return spec.OpenCtx(ctx, 0)
		}
	}
	if err != nil {
		o.failf("%v", err)
	}
	if ses.info.Seed == 0 {
		if o.shared {
			o.failf("a shared client cannot predict derived seeds")
		}
		o.ordinal++
		ses.info.Seed = deriveSeed(o.srv.opt.Seed, o.ordinal)
	}
	if !o.shared {
		if reason := o.admit(ses.cost); reason != "" {
			hdr, _ := o.send(-1, http.StatusTooManyRequests, "POST", path, body)
			retry := map[string]string{rejectCap: "2", rejectBudget: "2", rejectPressure: "1"}[reason]
			if got := hdr.Get("Retry-After"); got != retry {
				o.failf("a %s reject says Retry-After %q, want %q", reason, got, retry)
			}
			o.rejects[reason]++
			return
		}
	}
	_, data := o.send(-1, http.StatusCreated, "POST", path, body)
	got := o.decodeInfo(data)
	ses.info.ID = got.ID
	if !o.shared {
		o.nextID++
		ses.info.ID = "s" + strconv.FormatUint(o.nextID, 10)
	}
	if ses.twin, err = open(context.Background()); err != nil {
		o.failf("offline twin: %v", err)
	}
	ses.info.Order, ses.info.MaxACFError = ses.twin.Order(), ses.twin.MaxACFError()
	o.all = append(o.all, ses)
	o.checkInfo(ses, got)
}

func (o *oracle) decodeInfo(data []byte) SessionInfo {
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		o.failf("session info: %v", err)
	}
	return info
}

func (o *oracle) checkInfo(ses *oracleSession, got SessionInfo) {
	want := ses.info
	want.Created = got.Created
	if got != want {
		o.failf("session info %+v, oracle says %+v", got, want)
	}
}

// infoOf answers GET /v1/streams/{id}, a 404 for a session that is gone.
func (o *oracle) infoOf(ses *oracleSession) (SessionInfo, bool) {
	if !ses.alive {
		o.send(-1, http.StatusNotFound, "GET", "/v1/streams/"+ses.info.ID, nil)
		return SessionInfo{}, false
	}
	_, data := o.send(-1, http.StatusOK, "GET", "/v1/streams/"+ses.info.ID, nil)
	return o.decodeInfo(data), true
}

// encodeFrames is the frames body the server owes: one record per chunk
// and the terminator, or one 'g'-formatted line per frame.
func encodeFrames(frames []float64, records bool) []byte {
	var b []byte
	if !records {
		for _, v := range frames {
			b = append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
		}
		return b
	}
	for lo := 0; lo < len(frames); lo += streamChunk {
		b = AppendFrameRecord(b, frames[lo:min(lo+streamChunk, len(frames))])
	}
	return AppendFrameTrailer(b)
}

// read serves a frames or disconnect op. A disconnect hangs up once the
// first chunk has arrived and resyncs the session from GET
// /v1/streams/{id}, which waits for the handler to let go of the session:
// the first chunk went out whole, so the server counted it, and the
// session stopped somewhere in the range it was asked for.
func (o *oracle) read(ses *oracleSession, p op) {
	format, ct := "ndjson", "application/x-ndjson"
	if p.records {
		format, ct = "frames", ContentTypeFrames
	}
	path := fmt.Sprintf("/v1/streams/%s/frames?n=%d&format=%s", ses.info.ID, p.n, format)
	start := ses.info.Pos
	if p.from >= 0 {
		path += "&from=" + strconv.Itoa(p.from)
		start = p.from
	}
	if !ses.alive {
		o.send(-1, http.StatusNotFound, "GET", path, nil)
		return
	}
	want, limit := encodeFrames(ses.want(start, p.n), p.records), -1
	if p.kind == opDisconnect {
		limit = frameRecordHeader + 8*streamChunk
		if !p.records {
			limit = len(encodeFrames(ses.want(start, streamChunk), false))
		}
		want = want[:limit]
	}
	hdr, body := o.send(limit, http.StatusOK, "GET", path, nil)
	if got := hdr.Get("Content-Type"); got != ct {
		o.failf("Content-Type %q, want %q", got, ct)
	}
	if got, seed := hdr.Get("X-Stream-Start"), hdr.Get("X-Stream-Seed"); got != strconv.Itoa(start) || seed != strconv.FormatUint(ses.info.Seed, 10) {
		o.failf("session %s: X-Stream-Start %s X-Stream-Seed %s, oracle says %d %d", ses.info.ID, got, seed, start, ses.info.Seed)
	}
	if !bytes.Equal(body, want) {
		i := 0
		for i < min(len(body), len(want)) && body[i] == want[i] {
			i++
		}
		o.failf("session %s frames [%d, %d): the body differs from the oracle's at byte %d (%d bytes, want %d)",
			ses.info.ID, start, start+p.n, i, len(body), len(want))
	}
	if limit < 0 {
		ses.info.Pos = start + p.n
		ses.info.Served += uint64(p.n)
		return
	}
	got, _ := o.infoOf(ses)
	if got.Pos < start+streamChunk || got.Pos > start+p.n {
		o.failf("session %s is at %d after a hang-up, want within [%d, %d]", ses.info.ID, got.Pos, start+streamChunk, start+p.n)
	}
	if lo, hi := ses.info.Served+streamChunk, ses.info.Served+uint64(got.Pos-start); got.Served < lo || got.Served > hi {
		o.failf("session %s served %d after a hang-up, want within [%d, %d]", ses.info.ID, got.Served, lo, hi)
	}
	ses.info.Pos, ses.info.Served = got.Pos, got.Served
	o.checkInfo(ses, got)
}

func (o *oracle) step(p op) {
	var list []*oracleSession
	for _, ref := range p.refs {
		ses := o.resolve(ref)
		if ses == nil {
			return
		}
		if !p.dedupe || !slices.Contains(list, ses) {
			list = append(list, ses)
		}
	}
	if p.fleet {
		// A simulation stepping its fleet: same-spec sessions side by side,
		// so the truncated ones of one truncation form lane groups.
		list = o.live()
		slices.SortStableFunc(list, func(a, b *oracleSession) int { return a.spec - b.spec })
	}
	req, code := StepRequest{N: p.n, IncludeFrames: p.include}, http.StatusOK
	if len(list) == 0 {
		code = http.StatusBadRequest
	}
	for i, ses := range list {
		req.IDs = append(req.IDs, ses.info.ID)
		switch {
		case slices.Contains(list[:i], ses):
			code = http.StatusBadRequest // checked before any lookup
		case !ses.alive && code == http.StatusOK:
			code = http.StatusNotFound
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		o.failf("%v", err)
	}
	_, data := o.send(-1, code, "POST", "/v1/streams/step", body)
	if code != http.StatusOK {
		return // and nothing moved: the next read's X-Stream-Start says so
	}
	var results []StepResult
	if err := json.Unmarshal(data, &results); err != nil || len(results) != len(list) {
		o.failf("step response of %d results for %d ids: %v", len(results), len(list), err)
	}
	for i, ses := range list {
		res, pos := results[i], ses.info.Pos
		if res.ID != ses.info.ID || res.Gone || res.Start != pos || res.Pos != pos+p.n {
			o.failf("step result %d: %s %d→%d gone=%v, oracle says %s %d→%d", i, res.ID, res.Start, res.Pos, res.Gone, ses.info.ID, pos, pos+p.n)
		}
		var want []float64
		if p.include {
			want = ses.want(pos, p.n)
		}
		if len(res.Frames) != len(want) || (res.Frames == nil) != (want == nil) {
			o.failf("session %s: step returned %d frames, oracle says %d", ses.info.ID, len(res.Frames), len(want))
		}
		for j, v := range want {
			if math.Float64bits(res.Frames[j]) != math.Float64bits(v) {
				o.failf("session %s stepped frame %d: %v, oracle says %v", ses.info.ID, pos+j, res.Frames[j], v)
			}
		}
		ses.info.Pos += p.n
		ses.info.Served += uint64(p.n)
	}
}

// checkBooks compares the server's admission sum, registry size and
// sessions gauge with the oracle's, after every op of a sequential run.
func (o *oracle) checkBooks() {
	if got := o.srv.adm.usedCost(); got != o.used {
		o.failf("admission cost used %v, oracle says %v", got, o.used)
	}
	if got := len(o.srv.reg.list()); got != o.open {
		o.failf("registry holds %d sessions, oracle says %d", got, o.open)
	}
	if got := o.srv.metrics.sessionsActive.Value(); got != float64(o.open) {
		o.failf("vbrsim_sessions_active %v, oracle says %d", got, o.open)
	}
}

// drain deletes every live session the oracle created.
func (o *oracle) drain() {
	for _, ses := range o.live() {
		o.send(-1, http.StatusNoContent, "DELETE", "/v1/streams/"+ses.info.ID, nil)
		o.release(ses)
	}
}

// checkDrained requires the server's books back at zero once every session
// is gone: admission cost, registry size, vbrsim_sessions_active, and the
// process-wide vbrsim_streamblock_arena_bytes back at its value before the
// run. With purge it also purges the plan cache and requires
// vbrsim_plan_cache_bytes at zero. The next run then rebuilds every
// truncation it opens (about 25 ms each), so only the concurrent phase,
// which drains last, purges.
func checkDrained(t *testing.T, s *Server, ts *httptest.Server, arenaBefore float64, purge bool) {
	t.Helper()
	if purge {
		hosking.Shared.Purge()
	}
	if got := s.adm.usedCost(); got != 0 {
		t.Errorf("admission cost used %v after the drain, want 0", got)
	}
	if got := len(s.reg.list()); got != 0 {
		t.Errorf("registry holds %d sessions after the drain, want 0", got)
	}
	text := string(scrapeMetrics(t, ts.URL))
	if got := metricValue(t, text, "vbrsim_sessions_active"); got != 0 {
		t.Errorf("vbrsim_sessions_active %v after the drain, want 0", got)
	}
	if got := metricValue(t, text, "vbrsim_plan_cache_bytes"); purge && got != 0 {
		t.Errorf("vbrsim_plan_cache_bytes %v after the drain and a purge, want 0", got)
	}
	if got := metricValue(t, text, "vbrsim_streamblock_arena_bytes"); got != arenaBefore {
		t.Errorf("vbrsim_streamblock_arena_bytes %v after the drain, want %v as before the run", got, arenaBefore)
	}
}

// runOracle runs ops under each of oracleSettings.
func runOracle(t *testing.T, ops []op) {
	for _, st := range oracleSettings() {
		t.Run(fmt.Sprintf("workers=%d", st[0]), func(t *testing.T) { runOracleOn(t, ops, st[0], st[1]) })
	}
}

// runOracleOn runs ops on a fresh server, checking every response and the
// books after every op, then drains. The session cap and budget admit the
// largest scripted fleet (16 sessions, 139.8 cost units) and make random
// sequences meet every reject reason.
func runOracleOn(t *testing.T, ops []op, workers, statmon int) {
	s, ts := newTestServer(t, Options{MaxSessions: 16, MaxCost: 150, StepWorkers: workers, StatmonSampleEvery: statmon, Seed: 99})
	arena := arenaBytesGauge(t, ts.URL)
	o := newOracle(s, ts, t.Fatalf)
	for i, p := range ops {
		o.where = fmt.Sprintf("%s statmon=%d op %d: %v %+v", t.Name(), statmon, i, p.kind, p)
		o.exec(p)
		o.checkBooks()
	}
	o.where = t.Name() + " drain"
	o.drain()
	for _, reason := range []string{rejectCap, rejectBudget, rejectPressure} {
		if got := s.metrics.admissionRejects.With(reason).Value(); got != o.rejects[reason] {
			t.Errorf("%v %s rejects counted, oracle says %v", got, reason, o.rejects[reason])
		}
	}
	checkDrained(t, s, ts, arena, false)
}

// runOracleConcurrent has workers goroutines share one server. Each
// creates its own sessions (pinned seeds, specs in createSpecs' rotation
// from the trunk on), runs its own oracle's reads, hang-ups, info and step
// ops on them alone, and deletes them. The budget cannot refuse a create.
func runOracleConcurrent(t *testing.T, workers, sessions, ops int) {
	s, ts := newTestServer(t, Options{MaxSessions: workers * sessions, MaxCost: 1 << 20, StepWorkers: 3, StatmonSampleEvery: 1})
	arena := arenaBytesGauge(t, ts.URL)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := newOracle(s, ts, func(format string, args ...any) {
				t.Errorf(format, args...)
				runtime.Goexit()
			})
			o.shared = true
			for i := range sessions {
				o.where = fmt.Sprintf("worker %d create %d", w, i)
				o.exec(op{kind: opCreate, spec: createSpecs[(6+w+i)%len(createSpecs)], seed: uint16(1 + w*sessions + i)})
			}
			for i, p := range randomOps(uint64(1000+w), ops) {
				switch p.kind {
				case opFrames, opDisconnect, opStep, opInfo:
					o.where = fmt.Sprintf("worker %d op %d: %v %+v", w, i, p.kind, p)
					o.exec(p)
				}
			}
			o.where = fmt.Sprintf("worker %d drain", w)
			o.drain()
		}()
	}
	wg.Wait()
	if !t.Failed() {
		checkDrained(t, s, ts, arena, true)
	}
}

// TestServerOracle runs the scripted error, admission and hang-up
// sequences, seeded random sequences, and a concurrent phase.
func TestServerOracle(t *testing.T) {
	for _, sc := range []struct {
		name string
		ops  []byte
	}{{"errors", scriptErrors}, {"admission", scriptAdmission}, {"disconnect", scriptDisconnect}} {
		t.Run("scripted/"+sc.name, func(t *testing.T) { runOracle(t, decodeOps(sc.ops)) })
	}
	seeds, length := 2, 100
	workers, sessions, ops := 4, 4, 40
	if testing.Short() {
		seeds, length = 1, 60
		workers, sessions, ops = 3, 3, 16
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("random/seed=%d", seed), func(t *testing.T) {
			runOracle(t, randomOps(uint64(seed), length))
		})
	}
	t.Run("concurrent", func(t *testing.T) { runOracleConcurrent(t, workers, sessions, ops) })
}

// FuzzServerOracle decodes its input into an op sequence (at most
// maxFuzzBytes of it) and checks that against the oracle, with three step
// workers and statmon tapping every chunk. The corpus is seeded with the
// scripted sequences.
func FuzzServerOracle(f *testing.F) {
	const maxFuzzBytes = 256
	for _, b := range [][]byte{
		scriptLockstepFleet, scriptWorkerCount, scriptStepBatch, scriptStepIncludeFrames,
		scriptBlockResumes, scriptStreamResumes, scriptTrunkResumes, scriptTrunkAutoSeed,
		scriptTrunkSteps, scriptRecordsAndNDJSON, scriptErrors, scriptAdmission, scriptDisconnect,
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		runOracleOn(t, decodeOps(b[:min(len(b), maxFuzzBytes)]), 3, 1)
	})
}

// Script helpers: each returns one op in decodeOps' layout. Session refs
// in scripts are creation ordinals, numbered in the order the creates that
// got in were sent.

func opByte(k opKind) byte {
	start := 0
	for _, w := range opWeight[:k] {
		start += w
	}
	return byte(start)
}

func be16(v int) []byte { return []byte{byte(v >> 8), byte(v)} }

// createOp creates a session of spec, which indexes createSpecs' first
// entries, each of them the spec of its own index.
func createOp(spec int, seed uint16) []byte {
	return append([]byte{opByte(opCreate), byte(spec)}, be16(int(seed))...)
}

func infoOp(ref uint8) []byte   { return []byte{opByte(opInfo), ref} }
func deleteOp(ref uint8) []byte { return []byte{opByte(opDelete), ref} }

// framesOp reads n frames from from (-1 continues); a hang-up reads more
// than one chunk and disconnects after the first.
func framesOp(ref uint8, from, n int, records, hangUp bool) []byte {
	b, v := []byte{opByte(opFrames), ref, 0}, n-1
	if hangUp {
		b[0], v = opByte(opDisconnect), n-streamChunk-1
	}
	if records {
		b[2] |= 2
	}
	b = append(b, be16(v)...)
	if from >= 0 {
		b[2] |= 1
		b = append(b, be16(from)...)
	}
	return b
}

func readOp(ref uint8, from, n int) []byte { return framesOp(ref, from, n, false, false) }

// stepOp steps refs by n frames.
func stepOp(n int, include bool, refs ...uint8) []byte {
	b := []byte{opByte(opStep), byte(len(refs) - 1), 0}
	if include {
		b[2] = 1
	}
	return append(append(b, be16(n-1)...), refs...)
}

// fleetOp creates one session of each spec, with seeds from seed, and
// reads reads[i] frames from the i-th where that is positive.
func fleetOp(seed uint16, specs, reads []int) []byte {
	var b []byte
	for i, spec := range specs {
		b = append(b, createOp(spec, seed+uint16(i))...)
		if i < len(reads) && reads[i] > 0 {
			b = append(b, readOp(uint8(i), -1, reads[i])...)
		}
	}
	return b
}

// firstRefs lists refs 0..n-1.
func firstRefs(n int) []uint8 {
	refs := make([]uint8, n)
	for i := range refs {
		refs[i] = uint8(i)
	}
	return refs
}

var (
	// scriptLockstepFleet steps a fleet that mixes truncated sessions of
	// two truncations (and two marginals over one of them) with block, tes
	// and trunk sessions, some fresh and some moved off frame 0 by a read,
	// with and without include_frames, for n across the chunk boundary.
	// Refs 0–3, 5–8 and 11–14 are runs of four truncated sessions of one
	// truncation, so full lane groups form; the rest mix engines.
	scriptLockstepFleet = func() []byte {
		b := fleetOp(1, []int{
			specPaper, specGamma, specPaper, specPaper, specBlock, specFGN, specFGN, specFGN,
			specFGN, specTES, specTrunk, specPaper, specPaper, specGamma, specPaper, specFGN,
		}, []int{0, 700, 100, 362, 100, 700, 0, 100, 1500, 0, 50, 700, 1500, 0, 3000, 2000})
		for _, n := range []int{1, 255, 1024, 1025, 3000} {
			b = slices.Concat(b, stepOp(n, false, firstRefs(16)...), stepOp(n, true, firstRefs(16)...))
		}
		for i := range 16 {
			b = append(b, readOp(uint8(i), -1, 16)...)
		}
		return b
	}()

	// scriptWorkerCount steps an 11-session block and truncated fleet,
	// which no tested worker count divides evenly, three rounds.
	scriptWorkerCount = slices.Concat(
		fleetOp(9000, []int{specBlock, specPaper, specBlock, specBlock, specPaper, specBlock, specBlock, specPaper, specBlock, specBlock, specPaper}, nil),
		stepOp(192, false, firstRefs(11)...), stepOp(64, true, firstRefs(11)...), stepOp(96, true, firstRefs(11)...))

	// scriptStepBatch steps a five-session fleet of both Gaussian engines
	// by 500 frames, then reads on from where the step left each.
	scriptStepBatch = slices.Concat(
		fleetOp(1000, []int{specBlock, specPaper, specBlock, specPaper, specBlock}, nil),
		stepOp(500, false, firstRefs(5)...),
		readOp(0, -1, 64), readOp(1, -1, 64), readOp(2, -1, 64), readOp(3, -1, 64), readOp(4, -1, 64))

	// scriptStepIncludeFrames returns 256 stepped block frames.
	scriptStepIncludeFrames = slices.Concat(createOp(specBlock, 31337), stepOp(256, true, 0))

	// scriptBlockResumes reads a block session on, then replays backwards.
	scriptBlockResumes = slices.Concat(createOp(specBlock, 4242), readOp(0, -1, 400), readOp(0, 50, 100))

	// scriptStreamResumes reads a truncated session in two requests, then
	// replays a past range.
	scriptStreamResumes = slices.Concat(createOp(specPaper, 1234), readOp(0, -1, 300), readOp(0, -1, 200), readOp(0, 100, 100))

	// scriptTrunkResumes reads a trunk on, then replays backwards.
	scriptTrunkResumes = slices.Concat(createOp(specTrunk, 777), readOp(0, -1, 400), readOp(0, 50, 100))

	// scriptTrunkAutoSeed reads a trunk whose seed the server derives.
	scriptTrunkAutoSeed = slices.Concat(createOp(specTrunk, 0), readOp(0, -1, 128))

	// scriptTrunkSteps steps a trunk beside a block stream, then reads on.
	scriptTrunkSteps = slices.Concat(fleetOp(5150, []int{specTrunk, specBlock}, nil),
		stepOp(300, false, 0, 1), readOp(0, -1, 64), readOp(1, -1, 64))

	// scriptRecordsAndNDJSON reads one window of two same-seed sessions in
	// both encodings.
	scriptRecordsAndNDJSON = slices.Concat(createOp(specPaper, 2026), createOp(specPaper, 2026),
		readOp(0, -1, 300), framesOp(1, -1, 300, true, false))

	// scriptErrors: an unknown id, an id listed twice in a step, a deleted
	// id in a step, and every request on a deleted session; no rejected
	// step moves a session.
	scriptErrors = slices.Concat(
		fleetOp(1, []int{specPaper, specTES, specBlock}, nil),
		[]byte{opByte(opUnknown)},
		stepOp(10, false, 0, 1, 0),
		deleteOp(1),
		stepOp(10, false, 0, 1, 2),
		readOp(1, -1, 5), framesOp(1, -1, 2000, false, true), infoOp(1), deleteOp(1),
		stepOp(10, true, 0, 2),
		infoOp(0), infoOp(2))

	// scriptAdmission meets every reject reason: 14 paper sessions fill
	// the budget past the pressure knee, so a 15th is a pressure reject and
	// a trunk a budget reject; two tes sessions reach the session cap, and
	// a third is a cap reject. A delete makes room, an eviction empties
	// the server, and an auto-seeded create gets in again.
	scriptAdmission = slices.Concat(
		fleetOp(1, make([]int, 15), nil), // specPaper is 0
		fleetOp(16, []int{specTrunk, specTES, specTES, specTES}, nil),
		deleteOp(0), createOp(specTES, 20),
		[]byte{opByte(opEvict)}, infoOp(3),
		createOp(specPaper, 0), readOp(17, -1, 10))

	// scriptDisconnect hangs up mid-body on each engine kind, in both
	// encodings and after a seek, then reads (one frame, then ten) and
	// steps on.
	scriptDisconnect = slices.Concat(
		fleetOp(1, []int{specPaper, specBlock, specTrunk, specTES}, nil),
		framesOp(0, -1, 3000, true, true), readOp(0, -1, 1),
		framesOp(1, -1, 4096, false, true), readOp(1, -1, 10),
		framesOp(2, 100, 2000, true, true), readOp(2, -1, 10),
		framesOp(3, -1, 1025, false, true),
		stepOp(100, true, 0, 1, 2, 3))
)

// The fixed cases of the served-equals-offline tests, as scripted
// sequences checked by the oracle.

func TestStreamStepLockstepDifferential(t *testing.T)   { runOracle(t, decodeOps(scriptLockstepFleet)) }
func TestStreamStepWorkerCountInvariance(t *testing.T)  { runOracle(t, decodeOps(scriptWorkerCount)) }
func TestStreamStepAdvancesBatch(t *testing.T)          { runOracle(t, decodeOps(scriptStepBatch)) }
func TestStreamStepIncludeFrames(t *testing.T)          { runOracle(t, decodeOps(scriptStepIncludeFrames)) }
func TestBlockEngineSessionMatchesOffline(t *testing.T) { runOracle(t, decodeOps(scriptBlockResumes)) }
func TestStreamMatchesOfflineAndResumes(t *testing.T)   { runOracle(t, decodeOps(scriptStreamResumes)) }
func TestTrunkSessionMatchesOffline(t *testing.T)       { runOracle(t, decodeOps(scriptTrunkResumes)) }
func TestTrunkSessionAutoSeed(t *testing.T)             { runOracle(t, decodeOps(scriptTrunkAutoSeed)) }
func TestTrunkSessionStepsWithStreams(t *testing.T)     { runOracle(t, decodeOps(scriptTrunkSteps)) }
func TestFramesBinaryMatchesNDJSON(t *testing.T)        { runOracle(t, decodeOps(scriptRecordsAndNDJSON)) }
