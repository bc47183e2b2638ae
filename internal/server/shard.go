package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// shard is one slice of the session registry: its own lock and map, so
// lookups and churn on different shards never contend. Sessions hash to a
// shard by ID, and because IDs come from one global counter the assignment
// is identical at any shard count — shard topology is invisible in every
// response (the shard-invariance test pins this).
type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
}

// sessionRegistry is the sharded session table: 2^k shards, each guarded by
// its own mutex. All cross-shard state (the total count, ID assignment,
// admission budget) lives outside the shards in atomics or the admission
// controller, so no operation ever holds two shard locks.
type sessionRegistry struct {
	shards []shard
	mask   uint32
	count  atomic.Int64
	// onCount, when set, observes every per-shard occupancy change (the
	// vbrsim_server_shard_sessions gauge). Called with the shard's lock
	// held; implementations must not touch the registry.
	onCount func(shard, active int)
}

// newSessionRegistry builds a registry of n shards, rounded up to a power
// of two (minimum 1).
func newSessionRegistry(n int, onCount func(shard, active int)) *sessionRegistry {
	size := 1
	for size < n {
		size <<= 1
	}
	r := &sessionRegistry{shards: make([]shard, size), mask: uint32(size - 1), onCount: onCount}
	for i := range r.shards {
		r.shards[i].sessions = make(map[string]*session)
	}
	return r
}

// shardFor hashes a session ID to its shard index (FNV-1a, masked).
func (r *sessionRegistry) shardFor(id string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h & r.mask)
}

// add registers ss under its (already assigned) ID.
func (r *sessionRegistry) add(ss *session) {
	i := r.shardFor(ss.id)
	sh := &r.shards[i]
	sh.mu.Lock()
	sh.sessions[ss.id] = ss
	if r.onCount != nil {
		r.onCount(i, len(sh.sessions))
	}
	sh.mu.Unlock()
	r.count.Add(1)
}

// get returns the session and refreshes its idle clock.
func (r *sessionRegistry) get(id string) (*session, bool) {
	sh := &r.shards[r.shardFor(id)]
	sh.mu.Lock()
	ss, ok := sh.sessions[id]
	sh.mu.Unlock()
	if ok {
		ss.touch()
	}
	return ss, ok
}

// remove unregisters id and returns the session for the caller to close.
func (r *sessionRegistry) remove(id string) (*session, bool) {
	i := r.shardFor(id)
	sh := &r.shards[i]
	sh.mu.Lock()
	ss, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
		if r.onCount != nil {
			r.onCount(i, len(sh.sessions))
		}
	}
	sh.mu.Unlock()
	if ok {
		r.count.Add(-1)
	}
	return ss, ok
}

// list snapshots every session, one shard at a time (no global lock).
func (r *sessionRegistry) list() []*session {
	out := make([]*session, 0, r.count.Load())
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, ss := range sh.sessions {
			out = append(out, ss)
		}
		sh.mu.Unlock()
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
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for id, ss := range sh.sessions {
			if ss.lastTouch.Load() > cut || !ss.mu.TryLock() {
				continue
			}
			if ss.lastTouch.Load() > cut {
				ss.mu.Unlock()
				continue
			}
			delete(sh.sessions, id)
			if r.onCount != nil {
				r.onCount(i, len(sh.sessions))
			}
			ss.closeLocked()
			ss.mu.Unlock()
			r.count.Add(-1)
			evicted++
			if onEvict != nil {
				onEvict(ss)
			}
		}
		sh.mu.Unlock()
	}
	return evicted
}

// numShards returns the shard count (always a power of two).
func (r *sessionRegistry) numShards() int { return len(r.shards) }
