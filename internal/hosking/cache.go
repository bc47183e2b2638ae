// Process-wide plan cache. Plan construction is O(n^2); the experiment
// pipelines, repeated Fit/Generate calls and every session the server opens
// keep asking for the same (ACF model, length) plans, or for the same
// truncation of one. An entry holds either an exact Plan (offline users:
// experiments, importance sampling, transform.Measure, conformance's exact
// backends) or a Truncated (the served path): a truncation miss scans for
// the order over two rolling rows and rebuilds only the O(p^2) prefix the
// truncation reads, so neither the cache nor the build holds the O(n^2)
// plan.
//
// The cache is keyed by a fingerprint of the *evaluated* autocorrelation
// table — not the model value — so any two models that agree on the first n
// lags share an entry, and models carrying slices or closures need no
// comparability. Model values with an identity — comparable values, and
// values carrying slices such as acf.Composite through a canonical encoding
// of their contents — additionally get an identity fast path so warm hits
// skip the O(n) table evaluation. Concurrent requests for the same entry
// are single-flighted: one goroutine builds, the rest wait.
//
// Because a hash key can collide, every hit is verified: the entry's
// autocorrelation table (a plan's own, or the one a truncation entry keeps)
// must match the requested model bitwise, otherwise the request falls
// through to a direct build (bypassing the cache).
package hosking

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"sync"
	"time"

	"vbrsim/internal/acf"
	"vbrsim/internal/obs"
)

// DefaultCacheCap is the eviction cap of the shared cache: the number of
// distinct plans and truncations kept in memory.
const DefaultCacheCap = 16

// Shared is the process-wide plan cache: through CachedPlan and
// core.TruncatedPlanForCtx it serves core.Model, the serving layer and the
// experiment pipelines.
var Shared = NewPlanCache(DefaultCacheCap)

// CachedPlan returns a plan for (model, n) from the shared process-wide
// cache, building and inserting it on a miss.
func CachedPlan(model acf.Model, n int) (*Plan, error) {
	return Shared.Get(model, n)
}

// CachedPlanCtx is CachedPlan with cancellation: both the wait on an
// in-flight build and the build itself observe ctx.
func CachedPlanCtx(ctx context.Context, model acf.Model, n int) (*Plan, error) {
	return Shared.GetCtx(ctx, model, n)
}

// CacheStats is a snapshot of a PlanCache's counters since construction.
type CacheStats struct {
	// Hits counts requests served from an existing entry (identity or
	// verified content match), including requests that waited for an
	// in-flight build of the same entry.
	Hits uint64
	// Misses counts requests that had to build their entry — an exact
	// plan, or a truncation by order scan and prefix rebuild: cold keys and
	// fingerprint-collision fallthroughs (which build uncached).
	Misses uint64
	// BuildTime is the wall time spent in the builds Misses counts,
	// canceled and failed ones included.
	BuildTime time.Duration
	// Evictions counts ready entries dropped by the LRU cap.
	Evictions uint64
	// SingleflightWaits counts requests that blocked on another caller's
	// in-flight build instead of duplicating it.
	SingleflightWaits uint64
}

// PlanCache is a bounded, single-flighted cache of Durbin–Levinson plans
// and their truncations.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	tick    uint64 // LRU clock
	stats   CacheStats
	bytes   int64 // sum of the ready entries' sizes
	entries map[cacheKey]*cacheEntry
	// ident is an identity fast path: for model values with an identity
	// (see modelIdentity) a repeat Get skips the O(n) table evaluation and
	// fingerprinting entirely. Relies on acf.Model.At being pure, which the
	// whole package assumes (plans are immutable evaluations of the model).
	ident map[identKey]*cacheEntry
}

// cacheKey is a table fingerprint, the plan length and, for a truncation
// entry, its defaulted options (the zero value keys the plan itself).
type cacheKey struct {
	fp  uint64
	n   int
	opt TruncateOptions
}

// identKey is a model identity plus the plan length and truncation options.
// A hashable model value keys by itself (model); any other model with an
// identity keys by its dynamic type and canonical encoding (typ, enc), with
// model left nil.
type identKey struct {
	model acf.Model
	typ   reflect.Type
	enc   string
	n     int
	opt   TruncateOptions
}

type cacheEntry struct {
	ready chan struct{} // closed when val/err are set
	val   any           // *Plan, or *Truncated for a truncation key
	table []float64     // the n-lag autocorrelation table hits are verified against
	size  int64         // float64 backing bytes the entry retains, set at insert
	err   error
	used  uint64
}

// NewPlanCache returns a cache holding at most capacity ready entries.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		cap:     capacity,
		entries: make(map[cacheKey]*cacheEntry),
		ident:   make(map[identKey]*cacheEntry),
	}
}

// Len returns the number of cached entries (including in-flight builds).
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache counters. Counters only ever grow;
// Purge does not reset them.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Bytes returns the float64 backing bytes the ready entries retain: plan
// tables, truncation prefixes and the tables truncation entries keep to
// verify hits.
func (c *PlanCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Purge drops every ready entry, plans and truncations alike. In-flight
// builds complete and are kept.
func (c *PlanCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		select {
		case <-e.ready:
			c.dropLocked(k, e)
		default:
		}
	}
}

// fingerprint hashes the IEEE-754 bits of the autocorrelation table plus
// the length with FNV-1a (64-bit).
func fingerprint(r []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(r)))
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	for _, x := range r {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		for _, c := range b {
			h = (h ^ uint64(c)) * prime64
		}
	}
	return h
}

// Get returns a plan for (model, n), building it at most once per key even
// under concurrent callers. The returned plan is shared: callers must treat
// it as read-only (which the Plan API already enforces).
//
// Repeat requests with a comparable model value (plain structs like acf.FGN)
// or a slice-carrying one (acf.Composite) short-circuit through an identity
// map without re-evaluating the model; everything else pays one O(n) table
// evaluation and is matched by content.
func (c *PlanCache) Get(model acf.Model, n int) (*Plan, error) {
	return c.GetCtx(context.Background(), model, n)
}

// GetCtx is Get with cancellation: a caller waiting on another goroutine's
// in-flight build returns as soon as ctx is done, and a build started by
// this caller is aborted through the same context. When the shared build
// fails only because a *different* caller's context was canceled, the
// request is retried once so one aborted client cannot poison concurrent
// requests for the same plan (failed entries are dropped before waiters are
// released, so the retry starts a fresh build).
func (c *PlanCache) GetCtx(ctx context.Context, model acf.Model, n int) (*Plan, error) {
	v, err := c.acquire(ctx, model, n, TruncateOptions{})
	if err != nil {
		return nil, err
	}
	return v.(*Plan), nil
}

// TruncatedCtx returns the truncation of the length-n plan of model under
// opt: the same *Truncated for every caller while its entry lives, so state
// memoized on it through Derived is built once. It shares GetCtx's
// identity path, verification, single-flight, cancel-retry, counters and
// LRU cap, but the entry holds only the truncation and the n-lag table that
// verifies hits; a miss builds no plan (see scanTruncate).
// Truncation errors are not cached, like failed plan builds.
func (c *PlanCache) TruncatedCtx(ctx context.Context, model acf.Model, n int, opt TruncateOptions) (*Truncated, error) {
	v, err := c.acquire(ctx, model, n, opt.withDefaults())
	if err != nil {
		return nil, err
	}
	return v.(*Truncated), nil
}

// acquire looks up the entry for (model, n, opt) — a plan when opt is the
// zero value, else its defaulted truncation — and records a plan.acquire
// span when a tracer rides the context.
func (c *PlanCache) acquire(ctx context.Context, model acf.Model, n int, opt TruncateOptions) (any, error) {
	// The delta of the cache counters across the call tells hit from miss
	// from singleflight wait without touching the lookup paths themselves.
	if tr := obs.TracerFrom(ctx); tr != nil {
		before := c.Stats()
		span := tr.Start("plan.acquire")
		v, err := c.getRetry(ctx, model, n, opt)
		after := c.Stats()
		attrs := map[string]any{
			"n":                  n,
			"hits":               after.Hits - before.Hits,
			"misses":             after.Misses - before.Misses,
			"singleflight_waits": after.SingleflightWaits - before.SingleflightWaits,
		}
		if err != nil {
			attrs["error"] = err.Error()
		}
		span.End(attrs)
		return v, err
	}
	return c.getRetry(ctx, model, n, opt)
}

func (c *PlanCache) getRetry(ctx context.Context, model acf.Model, n int, opt TruncateOptions) (any, error) {
	v, err := c.get(ctx, model, n, opt)
	if err != nil && isContextErr(err) && ctx.Err() == nil {
		v, err = c.get(ctx, model, n, opt)
	}
	return v, err
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// waitEntry blocks until the entry resolves or ctx is done, reporting
// whether this caller had to wait on an in-flight build.
func waitEntry(ctx context.Context, e *cacheEntry) (waited bool, err error) {
	select {
	case <-e.ready:
		return false, nil
	default:
	}
	select {
	case <-e.ready:
		return true, nil
	case <-ctx.Done():
		return true, ctx.Err()
	}
}

// buildEntry builds the entry for (model, n, opt): the exact plan for the
// zero options, else the truncation through scanTruncate, which never
// holds the O(n^2) plan.
func buildEntry(ctx context.Context, model acf.Model, n int, opt TruncateOptions) (any, error) {
	if opt == (TruncateOptions{}) {
		p, err := NewPlanOptsCtx(ctx, model, n, PlanOptions{})
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	t, err := scanTruncate(ctx, model, n, opt)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (c *PlanCache) get(ctx context.Context, model acf.Model, n int, opt TruncateOptions) (any, error) {
	if n <= 0 || n > MaxPlanLen {
		return buildEntry(ctx, model, n, opt) // let NewPlan produce the error
	}
	ik, hasIdent := modelIdentity(model, n)
	ik.opt = opt
	if hasIdent {
		c.mu.Lock()
		if e, ok := c.ident[ik]; ok {
			c.tick++
			e.used = c.tick
			c.mu.Unlock()
			waited, werr := waitEntry(ctx, e)
			if waited {
				c.noteSingleflightWait()
			}
			if werr != nil {
				return nil, werr
			}
			// Only successful builds stay in the identity map, but a build
			// can still fail after this entry was recorded dead — count the
			// hit only once the entry actually delivered a value, so the
			// /metrics counters are not skewed by canceled waiters and
			// failed builds.
			if e.err == nil {
				c.noteHit()
			}
			return e.val, e.err
		}
		c.mu.Unlock()
	}
	table := make([]float64, n)
	for k := range table {
		table[k] = model.At(k)
	}
	key := cacheKey{fp: fingerprint(table), n: n, opt: opt}

	c.mu.Lock()
	c.tick++
	if e, ok := c.entries[key]; ok {
		e.used = c.tick
		c.mu.Unlock()
		waited, werr := waitEntry(ctx, e)
		if waited {
			c.noteSingleflightWait()
		}
		if werr != nil {
			return nil, werr
		}
		if e.err != nil {
			return nil, e.err
		}
		if tablesEqual(e.table, table) {
			// Verified content match: safe to record the identity shortcut.
			c.mu.Lock()
			c.stats.Hits++
			if hasIdent {
				c.ident[ik] = e
			}
			c.mu.Unlock()
			return e.val, nil
		}
		// Fingerprint collision: different table, same hash. Build directly
		// without caching rather than evicting the legitimate occupant.
		c.noteMiss()
		return c.build(ctx, tableModel(table), n, opt)
	}
	e := &cacheEntry{ready: make(chan struct{}), used: c.tick}
	c.entries[key] = e
	if hasIdent {
		c.ident[ik] = e
	}
	c.stats.Misses++
	c.evictLocked()
	c.mu.Unlock()

	v, err := c.build(ctx, tableModel(table), n, opt)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		delete(c.entries, key)
		c.dropIdentLocked(e)
		e.err = err
		close(e.ready)
		return nil, err
	}
	e.val = v
	switch v := v.(type) {
	case *Plan:
		e.table, e.size = v.r, v.bytes()
	case *Truncated:
		e.table, e.size = table, v.head.bytes()+8*int64(len(table))
	}
	c.bytes += e.size
	close(e.ready)
	return v, nil
}

func (c *PlanCache) noteHit() {
	c.mu.Lock()
	c.stats.Hits++
	c.mu.Unlock()
}

func (c *PlanCache) noteSingleflightWait() {
	c.mu.Lock()
	c.stats.SingleflightWaits++
	c.mu.Unlock()
}

func (c *PlanCache) noteMiss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

// build runs buildEntry for a counted miss and adds its wall time to
// BuildTime.
func (c *PlanCache) build(ctx context.Context, model acf.Model, n int, opt TruncateOptions) (any, error) {
	start := time.Now()
	v, err := buildEntry(ctx, model, n, opt)
	c.mu.Lock()
	c.stats.BuildTime += time.Since(start)
	c.mu.Unlock()
	return v, err
}

// maxIdentEncoding caps a canonical encoding kept as an identity key. A
// model bigger than this (a tabulated empirical ACF, say) costs about as
// much to encode as to evaluate, and its key would pin a table's worth of
// memory in the identity map, so it is matched by content instead.
const maxIdentEncoding = 1 << 10

// modelIdentity returns the identity key of (model, n), or false when the
// model has none and must be matched by content. A hashable model value is
// its own identity. A value that carries slices (acf.Composite) is
// identified by its dynamic type and a canonical bit-exact encoding of its
// contents: At is pure, so two values with the same type and encoding
// evaluate to the same table, and no value is trusted before its first
// identity record, which a table-verified hit or its own build makes.
func modelIdentity(model acf.Model, n int) (identKey, bool) {
	if model == nil {
		return identKey{}, false
	}
	if hashableModel(model) {
		return identKey{model: model, n: n}, true
	}
	v := reflect.ValueOf(model)
	enc, ok := appendCanonical(nil, v)
	if !ok || len(enc) > maxIdentEncoding {
		return identKey{}, false
	}
	return identKey{typ: v.Type(), enc: string(enc), n: n}, true
}

// appendCanonical appends an injective encoding of v's contents for a fixed
// type: floats by their IEEE-754 bits, slices and strings with their length
// (and slices with their nil-ness), structs and arrays field by field. It
// reports false for anything whose behaviour the bytes cannot pin: pointers,
// maps, funcs, channels, and non-nil interfaces (whose dynamic type the
// encoding does not record).
func appendCanonical(b []byte, v reflect.Value) ([]byte, bool) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1), true
		}
		return append(b, 0), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int()), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.AppendUvarint(b, v.Uint()), true
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float())), true
	case reflect.Complex64, reflect.Complex128:
		z := v.Complex()
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(z)))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(z))), true
	case reflect.String:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		return append(b, v.String()...), true
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0), true
		}
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			var ok bool
			if b, ok = appendCanonical(b, v.Index(i)); !ok {
				return nil, false
			}
		}
		return b, true
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			var ok bool
			if b, ok = appendCanonical(b, v.Field(i)); !ok {
				return nil, false
			}
		}
		return b, true
	case reflect.Interface:
		if v.IsNil() {
			return append(b, 0), true
		}
		return nil, false
	default:
		return nil, false
	}
}

// hashableModel reports whether the model value can be a map key. Type
// comparability is not enough: a comparable struct may carry an interface
// field whose dynamic value is a slice (acf.Composite does), and hashing
// such a value panics at runtime. Walk the value and reject anything the
// runtime hash would reject.
func hashableModel(m acf.Model) bool {
	return hashableValue(reflect.ValueOf(m))
}

func hashableValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.Map, reflect.Func:
		return false
	case reflect.Interface:
		return v.IsNil() || hashableValue(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !hashableValue(v.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !hashableValue(v.Index(i)) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// dropLocked removes the ready entry e, stored under k, and stops counting
// its bytes.
func (c *PlanCache) dropLocked(k cacheKey, e *cacheEntry) {
	delete(c.entries, k)
	c.dropIdentLocked(e)
	c.bytes -= e.size
}

// dropIdentLocked removes every identity mapping that points at e.
func (c *PlanCache) dropIdentLocked(e *cacheEntry) {
	for k, v := range c.ident {
		if v == e {
			delete(c.ident, k)
		}
	}
}

// evictLocked drops least-recently-used ready entries until the cache is
// within capacity. In-flight builds are never evicted.
func (c *PlanCache) evictLocked() {
	for len(c.entries) > c.cap {
		var victim cacheKey
		var victimUsed uint64 = ^uint64(0)
		found := false
		for k, e := range c.entries {
			select {
			case <-e.ready:
			default:
				continue // still building
			}
			if e.used < victimUsed {
				victim, victimUsed, found = k, e.used, true
			}
		}
		if !found {
			return
		}
		c.dropLocked(victim, c.entries[victim])
		c.stats.Evictions++
	}
}

func tablesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// tableModel adapts an evaluated autocorrelation table back into an
// acf.Model so builds work from the already-evaluated values (one model
// evaluation per Get, not two).
type tableModel []float64

func (t tableModel) At(k int) float64 {
	if k < 0 || k >= len(t) {
		return 0
	}
	return t[k]
}
