package server

import (
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vbrsim/internal/obs"
)

// route registers pattern on the mux wrapped in the RED middleware under a
// stable endpoint label. The label, not the pattern, keys every request
// metric: patterns carry wildcards ({id}) and method prefixes that make
// poor label values, and a stable short name keeps dashboards readable.
func (s *Server) route(pattern, endpoint string, h http.Handler) {
	s.mux.Handle(pattern, s.instrument(s.newRouteMetrics(endpoint), h))
}

// routeMetrics is one endpoint's request-path metric children, resolved
// when the route is registered, so a request renders no label block and
// takes no vec lock. The per-status-code request counters are created on
// first use of a code and then read from a copy-on-write list (a route
// sees a handful of codes).
type routeMetrics struct {
	endpoint string
	requests *obs.CounterVec // endpoint, code
	errors   *obs.Counter
	seconds  *obs.Histogram

	mu     sync.Mutex // serializes byCode misses
	byCode atomic.Pointer[[]codeCounter]
}

type codeCounter struct {
	code int
	c    *obs.Counter
}

// newRouteMetrics resolves endpoint's children. Resolving them also
// pre-touches the per-endpoint series, so the exposition shows the full
// route table (zero-valued endpoints included) from the first scrape.
func (s *Server) newRouteMetrics(endpoint string) *routeMetrics {
	return &routeMetrics{
		endpoint: endpoint,
		requests: s.metrics.httpRequests,
		errors:   s.metrics.httpErrors.With(endpoint),
		seconds:  s.metrics.httpSeconds.With(endpoint),
	}
}

// requestsWith returns the httpRequests{endpoint,code} child for code.
func (m *routeMetrics) requestsWith(code int) *obs.Counter {
	if c := m.cached(code); c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.cached(code); c != nil {
		return c
	}
	c := m.requests.With(m.endpoint, strconv.Itoa(code))
	var next []codeCounter
	if old := m.byCode.Load(); old != nil {
		next = slices.Clone(*old)
	}
	next = append(next, codeCounter{code, c})
	m.byCode.Store(&next)
	return c
}

func (m *routeMetrics) cached(code int) *obs.Counter {
	if list := m.byCode.Load(); list != nil {
		for _, e := range *list {
			if e.code == code {
				return e.c
			}
		}
	}
	return nil
}

// instrument wraps h in the request-path telemetry: RED metrics (request
// and error counters, latency histogram, in-flight gauge) and, with an
// access log, a per-request id, the access tracer attached to the context
// so pipeline spans opened under this request (plan acquisition, IS warmup)
// stream into the access log, and one structured access-log line per
// request.
func (s *Server) instrument(m *routeMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var id string
		if s.access != nil {
			id = "r" + strconv.FormatUint(s.reqSeq.Add(1), 10)
			r = r.WithContext(obs.ContextWithTracer(r.Context(), s.access))
		}

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.metrics.httpInFlight.Add(1)
		begin := time.Now()
		next.ServeHTTP(sw, r)
		seconds := time.Since(begin).Seconds()
		s.metrics.httpInFlight.Add(-1)

		m.requestsWith(sw.code).Inc()
		if sw.code >= 500 {
			m.errors.Inc()
		}
		m.seconds.Observe(seconds)
		if s.access != nil {
			s.access.Event("access", map[string]any{
				"req_id":   id,
				"method":   r.Method,
				"path":     r.URL.Path,
				"endpoint": m.endpoint,
				"status":   sw.code,
				"seconds":  seconds,
				"bytes":    sw.bytes,
			})
		}
	})
}

// statusWriter records the response status and body size for the RED
// counters and the access log. It forwards Flush so the streaming frames
// path keeps its per-chunk backpressure behaviour through the middleware,
// and Unwrap so http.ResponseController reaches the connection's writer
// (write deadlines, full-duplex).
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap returns the wrapped ResponseWriter for http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
