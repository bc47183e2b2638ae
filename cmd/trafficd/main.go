// Command trafficd serves synthetic VBR video traffic over HTTP: streaming
// generation sessions, async fit / queueing-simulation jobs, and Prometheus
// metrics. See internal/server for the API surface and README.md for a curl
// walkthrough.
//
// Usage:
//
//	trafficd                      # listen on :8080
//	trafficd -addr 127.0.0.1:0    # ephemeral port (printed on stdout)
//	trafficd -max-sessions 256 -job-workers 2
//	trafficd -statmon-sample 1 -access-log access.ndjson
//
// A session serves exactly what modelspec's Spec.Frames generates offline
// for its spec and seed: truncated-AR sessions, trunks and jobs all take
// their truncation from the shared plan cache at the default tolerance, so
// no flag can make served frames differ from offline synthesis.
//
// On SIGINT/SIGTERM the daemon drains: /healthz flips to 503, new sessions
// and jobs are rejected, in-flight streams and queued jobs finish (bounded
// by -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vbrsim/internal/obs"
	"vbrsim/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "trafficd:", err)
		os.Exit(1)
	}
}

// run executes the daemon until ctx is canceled; split from main for
// testability.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trafficd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
		maxSessions  = fs.Int("max-sessions", 64, "max concurrently open streaming sessions (excess gets 429)")
		shards       = fs.Int("shards", 16, "session-registry shard count (rounded up to a power of two)")
		maxCost      = fs.Float64("max-cost", 0, "admission-control cost budget in session units (0 = 16 per session slot)")
		idleTimeout  = fs.Duration("idle-timeout", 0, "evict sessions untouched for this long (0 = never)")
		jobWorkers   = fs.Int("job-workers", 0, "job worker-pool size (0 = min(GOMAXPROCS, 4))")
		jobQueue     = fs.Int("job-queue", 64, "max queued-but-unstarted jobs (excess gets 429)")
		seed         = fs.Uint64("seed", 1, "base seed for server-assigned session seeds")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		debugAddr    = fs.String("debug-addr", "", "serve pprof and /debug/vars on this extra address (empty = disabled; keep it private)")

		statmonSample  = fs.Int("statmon-sample", 0, "statistical monitor sampling: observe 1 in N served chunks (0 = default 32, negative = disable statmon)")
		driftThreshold = fs.Float64("drift-threshold", 0, "statmon drift score at which a session counts as drifting (0 = default 1.0)")
		accessLog      = fs.String("access-log", "", "append NDJSON access log (with request ids and spans) to this file (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var accessW io.Writer
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		accessW = f
	}

	// The daemon reports through the process-default registry so any
	// in-process instrumentation (plan cache, worker pools) lands on the
	// same /metrics page.
	srv := server.New(server.Options{
		MaxSessions:   *maxSessions,
		Shards:        *shards,
		MaxCost:       *maxCost,
		IdleTimeout:   *idleTimeout,
		JobWorkers:    *jobWorkers,
		JobQueueDepth: *jobQueue,
		Seed:          *seed,
		Registry:      obs.Default,

		StatmonSampleEvery:    *statmonSample,
		StatmonDriftThreshold: *driftThreshold,
		AccessLog:             accessW,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout so scripts binding port 0 can
	// parse where the daemon actually listens.
	fmt.Fprintf(stdout, "trafficd listening on http://%s\n", ln.Addr())

	var debugServer *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", srv.Registry().DumpHandler())
		debugServer = &http.Server{Handler: dmux}
		fmt.Fprintf(stdout, "trafficd debug on http://%s/debug/pprof/\n", dln.Addr())
		go debugServer.Serve(dln)
	}

	hs := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "trafficd: draining")
	if debugServer != nil {
		debugServer.Close()
	}
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "trafficd: forced shutdown:", err)
		hs.Close()
	}
	srv.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
