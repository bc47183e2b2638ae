package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/statmon"
	"vbrsim/internal/trunk"
)

// frameStream is what a session serves: the deterministic frame surface
// shared by modelspec.Stream (single source) and trunk.Trunk (superposition
// of many). Both are bound to one goroutine; the session mutex provides
// that binding on the HTTP side.
type frameStream interface {
	Pos() int
	Order() int
	MaxACFError() float64
	Fill(out []float64)
	SeekCtx(ctx context.Context, pos int) error
	Close()
}

// session is one named generation stream: a frameStream plus the
// bookkeeping the HTTP layer needs. The mutex serializes frame production —
// concurrent reads of the same session see disjoint, consecutive frame
// ranges unless they pin an explicit from= offset.
type session struct {
	id      string
	name    string
	cost    float64 // admission cost units reserved for this session
	seed    uint64
	created time.Time

	// lastTouch is the idle clock (unix nanos), refreshed by every
	// registry lookup; the evictor compares it against the idle cutoff.
	lastTouch atomic.Int64

	mu     sync.Mutex
	stream frameStream
	served uint64 // frames written over all requests
	closed bool   // stream closed (deleted or evicted); reject further use

	// mon is the session's statistical self-monitor (nil when statmon is
	// disabled). It has its own lock so metric scrapes and the stats
	// endpoint never wait on ss.mu behind a long frames read; the serve
	// path calls Observe while holding ss.mu, which orders the taps.
	mon *statmon.Monitor
}

// touch refreshes the idle clock.
func (ss *session) touch() { ss.lastTouch.Store(time.Now().UnixNano()) }

// closeLocked closes the stream exactly once. Callers hold ss.mu, so a
// delete racing an eviction cannot double-close, and a request that
// acquires the mutex afterwards sees closed and treats the session as
// gone instead of using a released stream.
func (ss *session) closeLocked() {
	if ss.closed {
		return
	}
	ss.closed = true
	ss.stream.Close()
}

// sessionKindTrunk marks superposition sessions in the public SessionInfo
// and SessionStats.
const sessionKindTrunk = "trunk"

// kind derives the session's public kind from its stream: "trunk" and the
// flattened source count for a superposition, "" and 0 for a plain stream.
func (ss *session) kind() (string, int) {
	if tr, ok := ss.stream.(*trunk.Trunk); ok {
		return sessionKindTrunk, tr.NumSources()
	}
	return "", 0
}

// SessionInfo is the public view of a session. Kind and Sources are set
// only for trunk sessions, so plain-stream responses are unchanged.
type SessionInfo struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	Kind        string    `json:"kind,omitempty"`
	Sources     int       `json:"sources,omitempty"`
	Seed        uint64    `json:"seed"`
	Pos         int       `json:"pos"`
	Served      uint64    `json:"frames_served"`
	Order       int       `json:"ar_order"`
	MaxACFError float64   `json:"max_acf_error"`
	Created     time.Time `json:"created"`
}

// info snapshots the session state; ok is false when the session was
// closed (deleted or evicted) after the caller looked it up, in which
// case the snapshot must not be served — the stream contract forbids
// touching a closed stream.
func (ss *session) info() (info SessionInfo, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return SessionInfo{}, false
	}
	kind, sources := ss.kind()
	return SessionInfo{
		ID:          ss.id,
		Name:        ss.name,
		Kind:        kind,
		Sources:     sources,
		Seed:        ss.seed,
		Pos:         ss.stream.Pos(),
		Served:      ss.served,
		Order:       ss.stream.Order(),
		MaxACFError: ss.stream.MaxACFError(),
		Created:     ss.created,
	}, true
}

// ---------------------------------------------------------------------------
// Session registry (on Server)

// addSession assigns the next session ID and registers ss.
// Admission (session cap, cost budget, drain) already happened in
// reserve; registration cannot fail.
func (s *Server) addSession(ss *session) {
	ss.id = fmt.Sprintf("s%d", s.nextSession.Add(1))
	ss.touch()
	s.reg.add(ss)
	s.metrics.sessionsActive.Add(1)
	s.metrics.sessionsTotal.Inc()
	if kind, _ := ss.kind(); kind == sessionKindTrunk {
		s.metrics.trunkSessions.Add(1)
	}
}

func (s *Server) removeSession(id string) bool {
	ss, ok := s.reg.remove(id)
	if !ok {
		return false
	}
	// closeLocked under ss.mu makes a delete racing an eviction sweep
	// single-close; Stream.Close touches no buffers, so a read that held
	// ss.mu first finishes safely and sees closed on its next request.
	ss.mu.Lock()
	ss.closeLocked()
	ss.mu.Unlock()
	s.retire(ss)
	return true
}

// retire settles the accounting of a session that is closed and out of
// the registry (deleted or evicted): its admission reservation and the
// session gauges. Engine-side accounting (the block engine's arena-bytes
// gauge) was released by the close.
func (s *Server) retire(ss *session) {
	s.adm.release(ss.cost)
	s.metrics.sessionsActive.Add(-1)
	if kind, _ := ss.kind(); kind == sessionKindTrunk {
		s.metrics.trunkSessions.Add(-1)
	}
}

// rejectCreate reports an admission rejection: 429 with a Retry-After
// hint (or 503 while draining), the per-reason counter, and the legacy
// streams-rejected counter.
func (s *Server) rejectCreate(w http.ResponseWriter, ae *admitError) {
	s.metrics.streamsRejected.Inc()
	s.metrics.admissionRejects.With(ae.reason).Inc()
	code := http.StatusTooManyRequests
	if ae.reason == rejectDrain {
		code = http.StatusServiceUnavailable
	} else if ae.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
	}
	httpError(w, code, ae)
}

// deriveSeed assigns a deterministic seed to the n-th auto-seeded session:
// SplitMix64 of the server base seed and the session ordinal. Restarting the
// daemon with the same base seed reproduces the same seed sequence, and the
// seed is echoed in the create response so clients can regenerate offline.
func deriveSeed(base, ordinal uint64) uint64 {
	z := base + ordinal*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// HTTP handlers

// limitBody returns r's body capped at maxBodyBytes. A body that declares
// a Content-Length above the cap is refused before a byte of it is read:
// a JSON decoder buffers what it reads, so reading an over-cap body up to
// the cap would cost several times the cap in allocation. limitBody then
// answers 400 and returns nil. A body of undeclared length (chunked) is
// cut off once the cap is read.
func limitBody(w http.ResponseWriter, r *http.Request) io.Reader {
	if r.ContentLength > maxBodyBytes {
		httpError(w, http.StatusBadRequest, &http.MaxBytesError{Limit: maxBodyBytes})
		return nil
	}
	return http.MaxBytesReader(w, r.Body, maxBodyBytes)
}

// decode reads a JSON request body into v, capped at maxBodyBytes and
// rejecting unknown fields. On failure it answers 400 and returns false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := limitBody(w, r)
	if body == nil {
		return false
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	body := limitBody(w, r)
	if body == nil {
		return
	}
	spec, err := modelspec.Parse(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.create(w, r, spec.Cost(), &spec.Seed, cmp.Or(spec.Name, "stream"), func(ctx context.Context) (frameStream, *statmon.Reference, error) {
		stream, err := spec.OpenCtx(ctx, 0)
		if err != nil {
			return nil, nil, err
		}
		return stream, s.streamRef(spec, stream), nil
	})
}

// handleTrunkCreate opens a superposition session: N independently seeded
// component streams multiplexed into one aggregate, served through the same
// frames/step/delete surface as a plain stream. Every component seed
// derives from the trunk seed, so the response's seed alone reproduces the
// whole aggregate offline (trunk.Open with the same spec).
func (s *Server) handleTrunkCreate(w http.ResponseWriter, r *http.Request) {
	body := limitBody(w, r)
	if body == nil {
		return
	}
	spec, err := modelspec.ParseTrunk(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.create(w, r, spec.Cost(), &spec.Seed, cmp.Or(spec.Name, sessionKindTrunk), func(ctx context.Context) (frameStream, *statmon.Reference, error) {
		tr, err := trunk.Open(ctx, spec, trunk.Options{})
		if err != nil {
			return nil, nil, err
		}
		// The aggregate's moments are not exposed analytically, so the
		// reference is empty.
		return tr, emptyRef, nil
	})
}

// create is the one create path behind POST /v1/streams and POST
// /v1/trunks, called with a spec modelspec has already decoded and
// validated: derive the seed when the spec leaves it 0, reserve the
// admission cost (read from the spec alone, so admission can reject before
// any plan is built), open, attach the monitor, register. open builds the
// seeded spec's stream and the statmon reference its monitor scores drift
// against. Admission happens before the expensive open, so a doomed
// request never builds a plan or touches an arena. The open is cancellable
// by the client and shares plans across sessions through the plan cache;
// when it fails the reservation is returned, so a rejected or failed
// create never leaks accounting.
func (s *Server) create(w http.ResponseWriter, r *http.Request, cost float64, seed *uint64, name string,
	open func(context.Context) (frameStream, *statmon.Reference, error)) {
	if *seed == 0 {
		*seed = deriveSeed(s.opt.Seed, s.seedOrdinal.Add(1))
	}
	if err := s.adm.reserve(cost); err != nil {
		s.rejectCreate(w, err)
		return
	}
	stream, ref, err := open(r.Context())
	if err != nil {
		s.adm.release(cost)
		if r.Context().Err() != nil {
			return // client gone; nothing to report
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ss := &session{name: name, cost: cost, seed: *seed, created: time.Now(), stream: stream, mon: s.newMonitor(ref)}
	s.addSession(ss)
	info, _ := ss.info() // a delete racing the create leaves the zero info
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleStreamList(w http.ResponseWriter, _ *http.Request) {
	list := s.reg.list()
	infos := make([]SessionInfo, 0, len(list))
	for _, ss := range list {
		if info, ok := ss.info(); ok {
			infos = append(infos, info)
		}
	}
	slices.SortFunc(infos, func(a, b SessionInfo) int { return compareSessionIDs(a.ID, b.ID) })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	info, ok := ss.info()
	if !ok {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	if !s.removeSession(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// streamChunk bounds both the write granularity and the buffered bytes per
// stream: frames are generated and flushed streamChunk at a time, so a slow
// reader blocks the generator (backpressure) instead of growing a buffer,
// and a vanished client is noticed within one chunk.
const streamChunk = 1024

// maxSeekAhead caps how far past the session's current position from= may
// seek in one request. The block engine seeks in O(1), but the truncated,
// gop and tes engines replay every skipped frame (from the seed on a
// backward seek) while the request holds ss.mu. A truncated seek to 2^22
// took 2.09 s on a 2-vCPU x86-64 host, so one at the cap is about 8 s of
// hidden work; the cap bounds it while staying far above any real resume
// gap.
const maxSeekAhead = 1 << 24

func (s *Server) handleStreamFrames(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	q := r.URL.Query()
	n, err := strconv.Atoi(q.Get("n"))
	if err != nil || n <= 0 {
		httpError(w, http.StatusBadRequest, errors.New("need n > 0 frames"))
		return
	}
	from := -1 // -1: continue from the session's current position
	if v := q.Get("from"); v != "" {
		from, err = strconv.Atoi(v)
		if err != nil || from < 0 {
			httpError(w, http.StatusBadRequest, errors.New("from must be a non-negative frame index"))
			return
		}
	}
	enc, err := frameEncodingOf(q, r.Header.Get("Accept"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()

	// Hold the session for the whole response: concurrent readers of one
	// session are serialized, so each sees a consistent frame range.
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		// Deleted or evicted between the registry lookup and the lock.
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	if from >= 0 {
		// Seeking forward generates every skipped frame, so a huge
		// client-supplied from would pin a core while holding ss.mu: bound
		// it relative to the current position, and let a disconnect or
		// shutdown abort the replay loop.
		if ahead := from - ss.stream.Pos(); ahead > maxSeekAhead {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("from=%d is %d frames ahead of position %d (max %d); stream the range instead", from, ahead, ss.stream.Pos(), maxSeekAhead))
			return
		}
		if ss.stream.SeekCtx(ctx, from) != nil {
			return // client gone mid-replay; the session stays where it got to
		}
	}

	setFrameHeaders(w.Header(), enc, ss.stream.Pos(), ss.seed)
	flusher, _ := w.(http.Flusher)
	s.metrics.streamFrames.Observe(float64(n))

	// The encode buffer is pooled, so steady-state streaming allocates
	// nothing per chunk on either encoding. Each chunk is written, and
	// flushed when another follows, before the next is generated. The
	// final chunk is not flushed: it stays in net/http's buffer, so a
	// response that fits there goes out with Content-Length in one socket
	// write after the handler returns and releases ss.mu.
	outp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(outp)
	out := *outp
	begin := time.Now()
	s.produce(ctx, []*session{ss}, n, [][]float64{make([]float64, min(n, streamChunk))}, func(chunk []float64, last bool) bool {
		out = enc.append(out[:0], chunk)
		if last && enc == encRecords {
			// Terminator record: the protocol-level "all frames
			// delivered", in the same Write as the final chunk.
			out = AppendFrameTrailer(out)
		}
		if _, err := w.Write(out); err != nil {
			return false
		}
		if !last && flusher != nil {
			flusher.Flush()
		}
		now := time.Now()
		s.metrics.frameEmitSeconds.Observe(now.Sub(begin).Seconds())
		begin = now
		return true
	})
	*outp = out[:0]
}

// produce advances every session of group by n frames, streamChunk at a
// time: fill, statmon tap, emit (nil discards), count. It is the one
// production loop behind the frames and step endpoints. A frames read
// passes one session; a step passes a lockstep group of up to stepGroup
// *modelspec.Stream sessions, which modelspec.FillStreams fills together.
// Session k's chunks land in bufs[k], which is either shorter than n (reused
// for every chunk) or at least n long (the chunks fill it in order, keeping
// every frame). The tap, the served count and framesStreamed are applied
// per session per chunk. It stops early when ctx is done or emit returns
// false, leaving the sessions where they got to. emit is for one-session
// groups; its last is true for the chunk that completes the n frames. The
// caller holds every group member's ss.mu.
func (s *Server) produce(ctx context.Context, group []*session, n int, bufs [][]float64, emit func(chunk []float64, last bool) bool) {
	var (
		starts [stepGroup]int
		sts    [stepGroup]*modelspec.Stream
		chunks [stepGroup][]float64
	)
	for k, ss := range group {
		starts[k] = ss.stream.Pos()
		if len(group) > 1 {
			sts[k] = ss.stream.(*modelspec.Stream)
		}
	}
	for done := 0; done < n; {
		if ctx.Err() != nil {
			return
		}
		c := min(n-done, streamChunk)
		for k, buf := range bufs {
			chunks[k] = buf[:c]
			if len(buf) >= n {
				chunks[k] = buf[done : done+c]
			}
		}
		if len(group) == 1 {
			group[0].stream.Fill(chunks[0])
		} else {
			modelspec.FillStreams(sts[:len(group)], chunks[:len(group)])
		}
		// Statistical self-monitoring tap: zero-copy (the monitor reads the
		// chunk in place, before emit or the next fill reuses it) and
		// position-aware, so the monitor can detect seeks and sampling
		// gaps. The sampled counter is atomic, so step workers feed it
		// without coordination.
		for k, ss := range group {
			if ss.mon.Observe(int64(starts[k]+done), chunks[k]) {
				s.metrics.statmonSampled.Add(float64(c))
			}
		}
		if emit != nil && !emit(chunks[0], done+c == n) {
			return
		}
		done += c
		for _, ss := range group {
			ss.served += uint64(c)
			s.metrics.framesStreamed.Add(float64(c))
		}
	}
}

// frameEncoding selects a frames response body format.
type frameEncoding int

const (
	encNDJSON  frameEncoding = iota // one ASCII float per line
	encRecords                      // length-prefixed x-vbrsim-frames records
)

// frameContentTypes is each encoding's Content-Type header value, shared by
// every frames response (net/http only reads header values).
var frameContentTypes = [...][]string{
	encNDJSON:  {"application/x-ndjson"},
	encRecords: {ContentTypeFrames},
}

// setFrameHeaders writes a frames response's Content-Type, X-Stream-Start
// and X-Stream-Seed into h under their canonical keys, as Header().Set
// would. The start and the seed are appended into one stack buffer, made
// one string and sliced in two, and share one value slice: two allocations
// per read.
func setFrameHeaders(h http.Header, enc frameEncoding, start int, seed uint64) {
	var buf [40]byte
	b := strconv.AppendInt(buf[:0], int64(start), 10)
	n := len(b)
	str := string(strconv.AppendUint(b, seed, 10))
	vals := []string{str[:n], str[n:]}
	h["Content-Type"] = frameContentTypes[enc]
	h["X-Stream-Start"] = vals[:1:1]
	h["X-Stream-Seed"] = vals[1:]
}

// append encodes one chunk of frames onto dst.
func (e frameEncoding) append(dst []byte, frames []float64) []byte {
	if e == encRecords {
		return AppendFrameRecord(dst, frames)
	}
	for _, v := range frames {
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		dst = append(dst, '\n')
	}
	return dst
}

// frameEncodingOf negotiates the frame encoding from the request's parsed
// query and its Accept header: format=frames or format=ndjson when given
// (any other value is an error), else the length-prefixed record protocol
// for Accept: application/x-vbrsim-frames and NDJSON otherwise.
func frameEncodingOf(q url.Values, accept string) (frameEncoding, error) {
	switch f := q.Get("format"); f {
	case "frames":
		return encRecords, nil
	case "ndjson":
		return encNDJSON, nil
	case "":
	default:
		return 0, fmt.Errorf("format=%q: want frames or ndjson", f)
	}
	if strings.Contains(accept, ContentTypeFrames) {
		return encRecords, nil
	}
	return encNDJSON, nil
}

// compareSessionIDs orders session IDs (s1, s2, ...) numerically: by
// length, then lexically.
func compareSessionIDs(a, b string) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
}
