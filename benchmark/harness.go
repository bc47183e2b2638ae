package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vbrsim/client"
	"vbrsim/internal/hosking"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/obs"
	"vbrsim/internal/server"
)

// harness is one trafficd under test: the real server.New handler behind a
// real http.Server on a loopback port, as cmd/trafficd runs it. Options stay
// at the daemon's defaults except MaxSessions, sized for the fleet (the
// admission cost budget derives from it), and a private metrics registry so
// that the repeated set-ups of one run never share counters.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
	dialed atomic.Int64 // TCP connections the server accepted
}

func startServer(maxSessions int) (*harness, error) {
	srv := server.New(server.Options{MaxSessions: maxSessions, Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &harness{srv: srv, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	h.hs = &http.Server{
		Handler: srv,
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				h.dialed.Add(1)
			}
		},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close shuts the http.Server down, waits for Serve to return, then closes
// the trafficd service.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if err != nil {
		h.hs.Close()
	}
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	h.srv.Close()
	return err
}

// conn is one client connection: a client.Client whose transport keeps at
// most one TCP connection, so the benchmark opens exactly as many
// connections as it runs client goroutines. It also keeps the X-Stream-Start
// header of the last response, which client.Frames does not return, so that
// each served range can be checked for contiguity.
type conn struct {
	c     *client.Client
	http  *http.Client
	tr    *http.Transport
	start int // X-Stream-Start of the last response; -1 when absent
}

func (h *harness) dial() *conn {
	cn := &conn{tr: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	cn.http = &http.Client{Transport: startTap{cn}}
	cn.c = &client.Client{BaseURL: h.base, HTTP: cn.http}
	return cn
}

func (cn *conn) close() { cn.tr.CloseIdleConnections() }

// startTap records the X-Stream-Start header of each response on its conn.
type startTap struct{ cn *conn }

func (t startTap) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.cn.tr.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	t.cn.start = -1
	if v := resp.Header.Get("X-Stream-Start"); v != "" {
		if n, perr := strconv.Atoi(v); perr == nil {
			t.cn.start = n
		}
	}
	return resp, nil
}

// fleet is a server with its sessions open and its client connections.
type fleet struct {
	h     *harness
	conns []*conn
	ids   []string // session ids, indexed like the specs they were created from
}

func (f *fleet) close() error {
	for _, cn := range f.conns {
		cn.close()
	}
	return f.h.close()
}

// createSessions opens one session per spec over the fleet's connections,
// connection g creating sessions g, g+len(conns), ...
func (f *fleet) createSessions(ctx context.Context, specs []modelspec.Spec) error {
	f.ids = make([]string, len(specs))
	errs := make([]error, len(f.conns))
	var wg sync.WaitGroup
	for g, cn := range f.conns {
		wg.Add(1)
		go func(g int, cn *conn) {
			defer wg.Done()
			for i := g; i < len(specs); i += len(f.conns) {
				info, err := cn.c.CreateStream(ctx, &specs[i])
				if err != nil {
					errs[g] = fmt.Errorf("create session %d: %w", i, err)
					return
				}
				f.ids[i] = info.ID
			}
		}(g, cn)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setUp builds the fleet reps times from cold — plan cache purged, fresh
// server, sessions created over loopback — and keeps the last one. It
// returns the wall time of each build, whose median is setup_s, and the live
// heap in MiB after the first build. A later build would also count what
// the earlier ones left in process-wide caches: streamblock's engine cache
// keeps the truncations of purged plans alive. Garbage left by a discarded
// build is collected before the next one is timed.
func setUp(ctx context.Context, reps, maxSessions, nconns int, specs []modelspec.Spec) (f *fleet, times []float64, heapMB float64, err error) {
	for rep := 0; ; rep++ {
		runtime.GC()
		begin := time.Now()
		hosking.Shared.Purge()
		h, err := startServer(maxSessions)
		if err != nil {
			return nil, nil, 0, err
		}
		f = &fleet{h: h}
		for g := 0; g < nconns; g++ {
			f.conns = append(f.conns, h.dial())
		}
		if err := f.createSessions(ctx, specs); err != nil {
			return nil, nil, 0, errors.Join(err, f.close())
		}
		times = append(times, time.Since(begin).Seconds())
		if rep == 0 {
			runtime.GC()
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			heapMB = float64(mem.HeapAlloc) / (1 << 20)
		}
		if rep == reps-1 {
			return f, times, heapMB, nil
		}
		if err := f.close(); err != nil {
			return nil, nil, 0, err
		}
	}
}
