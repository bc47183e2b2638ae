package server

import (
	"sync"
	"time"
)

// sessionRegistry is the session table: one map under one mutex. The lock
// covers only map operations; a session's own state has its own mutex, and
// ID assignment and the admission budget live outside the registry, so a
// registry critical section is a map access and nothing more. One lock
// suffices: the serving benchmark measured no gain from splitting the map
// into 16 shards (DESIGN.md §11).
type sessionRegistry struct {
	mu       sync.Mutex
	sessions map[string]*session
}

func newSessionRegistry() *sessionRegistry {
	return &sessionRegistry{sessions: make(map[string]*session)}
}

// add registers ss under its (already assigned) ID.
func (r *sessionRegistry) add(ss *session) {
	r.mu.Lock()
	r.sessions[ss.id] = ss
	r.mu.Unlock()
}

// get returns the session and refreshes its idle clock.
func (r *sessionRegistry) get(id string) (*session, bool) {
	r.mu.Lock()
	ss, ok := r.sessions[id]
	r.mu.Unlock()
	if ok {
		ss.touch()
	}
	return ss, ok
}

// remove unregisters id and returns the session for the caller to close.
func (r *sessionRegistry) remove(id string) (*session, bool) {
	r.mu.Lock()
	ss, ok := r.sessions[id]
	delete(r.sessions, id)
	r.mu.Unlock()
	return ss, ok
}

// list snapshots every session.
func (r *sessionRegistry) list() []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*session, 0, len(r.sessions))
	for _, ss := range r.sessions {
		out = append(out, ss)
	}
	return out
}

// evictIdle removes sessions untouched since the cutoff and returns them
// closed. A session whose mutex is held (a frames read or step in flight)
// is busy by definition and skipped via TryLock; the idle clock is
// re-checked under the session lock so a request that grabbed the session
// just before the sweep can never lose it (get touches before locking).
func (r *sessionRegistry) evictIdle(cutoff time.Time, onEvict func(*session)) int {
	evicted := 0
	cut := cutoff.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, ss := range r.sessions {
		if ss.lastTouch.Load() > cut || !ss.mu.TryLock() {
			continue
		}
		if ss.lastTouch.Load() > cut {
			ss.mu.Unlock()
			continue
		}
		delete(r.sessions, id)
		ss.closeLocked()
		ss.mu.Unlock()
		evicted++
		if onEvict != nil {
			onEvict(ss)
		}
	}
	return evicted
}
