package hosking

import "sync"

// memoCap bounds each memo. Keys are influenced by clients (the marginals of
// specs sharing one ACF), so the cap is a leak guard, not an LRU: on
// overflow the map is dropped and refilled. Values already handed out stay
// valid for their holders.
const memoCap = 16

// memo caches values derived from the immutable truncation it is embedded
// in (engines and per-spec state, through Truncated.Derived). Because it
// lives on the truncation, dropping it — a plan-cache eviction or
// Shared.Purge of the entry holding it — releases everything derived from
// it: no process-wide map pins a purged truncation. The zero value is ready
// to use.
type memo struct {
	mu sync.Mutex
	m  map[any]*memoEntry
}

type memoEntry struct {
	once sync.Once
	v    any
	err  error
}

// get returns the value for key, running build at most once per key even
// under concurrent callers (the rest wait for the first build). Errors are
// memoized like values: every build this package hosts is deterministic.
// key must be comparable.
func (m *memo) get(key any, build func() (any, error)) (any, error) {
	m.mu.Lock()
	e, ok := m.m[key]
	if !ok {
		if m.m == nil || len(m.m) >= memoCap {
			m.m = make(map[any]*memoEntry)
		}
		e = &memoEntry{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}
