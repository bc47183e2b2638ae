package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
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
	kind    string  // "" for plain streams, "trunk" for superpositions
	sources int     // flattened source count (trunk sessions only)
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

func (ss *session) info() SessionInfo {
	info, _ := ss.infoOK()
	return info
}

// infoOK snapshots the session state; ok is false when the session was
// closed (deleted or evicted) after the caller looked it up, in which
// case the snapshot must not be served — the stream contract forbids
// touching a closed stream.
func (ss *session) infoOK() (SessionInfo, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return SessionInfo{}, false
	}
	return ss.infoLocked(), true
}

func (ss *session) infoLocked() SessionInfo {
	return SessionInfo{
		ID:          ss.id,
		Name:        ss.name,
		Kind:        ss.kind,
		Sources:     ss.sources,
		Seed:        ss.seed,
		Pos:         ss.stream.Pos(),
		Served:      ss.served,
		Order:       ss.stream.Order(),
		MaxACFError: ss.stream.MaxACFError(),
		Created:     ss.created,
	}
}

// ---------------------------------------------------------------------------
// Session registry (on Server)

// addSession assigns the next session ID and registers ss in its shard.
// Admission (session cap, cost budget, drain) already happened in
// reserve; registration cannot fail.
func (s *Server) addSession(ss *session) {
	ss.id = fmt.Sprintf("s%d", s.nextSession.Add(1))
	ss.touch()
	s.reg.add(ss)
	s.metrics.sessionsActive.Add(1)
	s.metrics.sessionsTotal.Inc()
	if ss.kind == sessionKindTrunk {
		s.metrics.trunkSessions.Add(1)
	}
}

func (s *Server) getSession(id string) (*session, bool) {
	ss, ok := s.reg.get(id)
	if ok {
		// Per-shard lookup counter: with the sharded registry, a skewed
		// request mix shows up here long before it shows up as contention.
		s.metrics.shardRequests.With(shardLabel(s.reg.shardFor(id))).Inc()
	}
	return ss, ok
}

func (s *Server) removeSession(id string) bool {
	ss, ok := s.reg.remove(id)
	if !ok {
		return false
	}
	// Release engine-side accounting (the block engine's arena-bytes
	// gauge) and the admission reservation. closeLocked under ss.mu makes
	// a delete racing an eviction sweep single-close; Stream.Close touches
	// no buffers, so a read that held ss.mu first finishes safely and sees
	// closed on its next request.
	ss.mu.Lock()
	ss.closeLocked()
	ss.mu.Unlock()
	s.adm.release(ss.cost)
	s.metrics.sessionsActive.Add(-1)
	if ss.kind == sessionKindTrunk {
		s.metrics.trunkSessions.Add(-1)
	}
	return true
}

// rejectCreate reports an admission rejection: 429 with a Retry-After
// hint (or 503 while draining), the per-reason counter, and the legacy
// streams-rejected counter.
func (s *Server) rejectCreate(w http.ResponseWriter, err error) {
	s.metrics.streamsRejected.Inc()
	code := http.StatusTooManyRequests
	if ae, ok := asAdmitError(err); ok {
		s.metrics.admissionRejects.With(ae.reason).Inc()
		if ae.reason == rejectDrain {
			code = http.StatusServiceUnavailable
		} else if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
		}
	} else if errors.Is(err, errDraining) {
		code = http.StatusServiceUnavailable
	}
	httpError(w, code, err)
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

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	var spec modelspec.Spec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if spec.Seed == 0 {
		spec.Seed = deriveSeed(s.opt.Seed, s.seedOrdinal.Add(1))
	}
	// Admission happens before the expensive plan acquisition: the cost is
	// estimated from the spec alone, so a doomed request never builds a
	// plan or touches an arena.
	cost := spec.Cost()
	if err := s.adm.reserve(cost); err != nil {
		s.rejectCreate(w, err)
		return
	}
	// Plan acquisition is the expensive step; it is cancellable by the
	// client and shared across sessions through the plan cache. Any
	// failure from here on returns the reservation and closes the stream:
	// a rejected or failed create never leaks engine accounting.
	stream, err := spec.OpenCtx(r.Context(), s.opt.Tol)
	if err != nil {
		s.adm.release(cost)
		if r.Context().Err() != nil {
			return // client gone; nothing to report
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	name := spec.Name
	if name == "" {
		name = "stream"
	}
	ss := &session{name: name, cost: cost, seed: spec.Seed, created: time.Now(), stream: stream}
	ss.mon = s.newStreamMonitor(&spec, stream)
	s.addSession(ss)
	writeJSON(w, http.StatusCreated, ss.info())
}

// sessionKindTrunk marks superposition sessions in the registry and the
// public SessionInfo.
const sessionKindTrunk = "trunk"

// handleTrunkCreate opens a superposition session: N independently seeded
// component streams multiplexed into one aggregate, served through the same
// frames/step/delete surface as a plain stream. The trunk seed is derived
// exactly like a stream seed when the spec leaves it 0, and every component
// seed derives from the trunk seed, so the response's seed alone reproduces
// the whole aggregate offline (trunk.Open with the same spec).
func (s *Server) handleTrunkCreate(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	var spec modelspec.TrunkSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if spec.Seed == 0 {
		spec.Seed = deriveSeed(s.opt.Seed, s.seedOrdinal.Add(1))
	}
	// Trunks are the expensive sessions admission exists for: the cost
	// scales with the flattened source count, so under pressure a 4096-
	// source superposition is shed while plain streams keep landing.
	cost := estimateTrunkCost(&spec)
	if err := s.adm.reserve(cost); err != nil {
		s.rejectCreate(w, err)
		return
	}
	tr, err := trunk.Open(r.Context(), &spec, trunk.Options{Tol: s.opt.Tol})
	if err != nil {
		s.adm.release(cost)
		if r.Context().Err() != nil {
			return // client gone; nothing to report
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	name := spec.Name
	if name == "" {
		name = sessionKindTrunk
	}
	ss := &session{
		name:    name,
		kind:    sessionKindTrunk,
		sources: tr.NumSources(),
		cost:    cost,
		seed:    spec.Seed,
		created: time.Now(),
		stream:  tr,
		mon:     s.newTrunkMonitor(),
	}
	s.addSession(ss)
	writeJSON(w, http.StatusCreated, ss.info())
}

func (s *Server) handleStreamList(w http.ResponseWriter, _ *http.Request) {
	list := s.reg.list()
	infos := make([]SessionInfo, 0, len(list))
	for _, ss := range list {
		if info, ok := ss.infoOK(); ok {
			infos = append(infos, info)
		}
	}
	sortSessionInfos(infos)
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.getSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errNoSession)
		return
	}
	info, ok := ss.infoOK()
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
// seek in one request. Skipped frames are generated one by one, so the cap
// bounds the worst-case hidden work a request can demand (a few seconds)
// while staying far above any real resume gap.
const maxSeekAhead = 1 << 24

func (s *Server) handleStreamFrames(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.getSession(r.PathValue("id"))
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
	enc := frameEncodingOf(r)
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
	start := ss.stream.Pos()

	w.Header().Set("Content-Type", enc.contentType())
	w.Header().Set("X-Stream-Start", strconv.Itoa(start))
	w.Header().Set("X-Stream-Seed", strconv.FormatUint(ss.seed, 10))
	flusher, _ := w.(http.Flusher)
	s.metrics.streamFrames.Observe(float64(n))

	// The frame buffer and the encode buffer are both recycled: frames are
	// generated into buf and written straight out through the pooled byte
	// buffer, so steady-state streaming allocates nothing per chunk on any
	// encoding.
	buf := make([]float64, 0, streamChunk)
	outp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(outp)
	out := *outp
	written := 0
	for written < n {
		if ctx.Err() != nil {
			return // client gone; the session position stays where it got to
		}
		c := n - written
		if c > streamChunk {
			c = streamChunk
		}
		emitBegin := time.Now()
		buf = buf[:c]
		ss.stream.Fill(buf)
		// Statistical self-monitoring tap: zero-copy (the monitor reads buf
		// in place, before the encoder reuses it) and position-aware, so the
		// monitor can detect seeks and sampling gaps.
		if ss.mon.Observe(int64(start+written), buf) {
			s.metrics.statmonSampled.Add(float64(c))
		}

		out = out[:0]
		switch enc {
		case encRecords:
			out = AppendFrameRecord(out, buf)
		case encFloat64:
			for _, v := range buf {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		default:
			for _, v := range buf {
				out = strconv.AppendFloat(out, v, 'g', -1, 64)
				out = append(out, '\n')
			}
		}
		if _, err := w.Write(out); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		s.metrics.frameEmitSeconds.Observe(time.Since(emitBegin).Seconds())
		written += c
		ss.served += uint64(c)
		s.metrics.framesStreamed.Add(float64(c))
	}
	if enc == encRecords {
		// Terminator record: the protocol-level "all frames delivered".
		w.Write(AppendFrameTrailer(out[:0]))
	}
	*outp = out[:0]
}

// frameEncoding selects a frames response body format.
type frameEncoding int

const (
	encNDJSON  frameEncoding = iota // one ASCII float per line
	encFloat64                      // raw float64 little-endian
	encRecords                      // length-prefixed x-vbrsim-frames records
)

func (e frameEncoding) contentType() string {
	switch e {
	case encFloat64:
		return "application/octet-stream"
	case encRecords:
		return ContentTypeFrames
	}
	return "application/x-ndjson"
}

// frameEncodingOf negotiates the frame encoding: the length-prefixed
// record protocol for Accept: application/x-vbrsim-frames (or
// format=frames), raw binary float64 for application/octet-stream (or
// format=binary), NDJSON otherwise.
func frameEncodingOf(r *http.Request) frameEncoding {
	switch r.URL.Query().Get("format") {
	case "frames":
		return encRecords
	case "binary":
		return encFloat64
	case "ndjson":
		return encNDJSON
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, ContentTypeFrames):
		return encRecords
	case strings.Contains(accept, "application/octet-stream"):
		return encFloat64
	}
	return encNDJSON
}

func sortSessionInfos(infos []SessionInfo) {
	// IDs are s1, s2, ...: compare numerically by length then lexically.
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && sessionIDLess(infos[j].ID, infos[j-1].ID); j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

func sessionIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}
