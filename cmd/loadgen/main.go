// Command loadgen drives a running trafficd over HTTP: it opens -streams
// sessions of the paper model, optionally advances the whole fleet through
// the batched POST /v1/streams/step endpoint, pulls -frames frames from each
// in parallel, verifies every stream against offline generation with the
// same seed (the determinism contract), and reports throughput. With -trunk
// it additionally smoke-tests a trunk session: a superposition of that many
// paper sources created, stepped, read, and verified bit-identical against
// the offline trunk engine.
//
// It is a correctness smoke, not a benchmark: serving throughput is
// measured by the benchmark/ module's loopback workloads.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 -streams 32 -frames 2000
//	loadgen -addr ... -streams 64 -step 4096        # batched-stepping driver
//	loadgen -addr ... -trunk 16                     # trunk-session smoke
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"vbrsim/client"
	"vbrsim/internal/modelspec"
	"vbrsim/internal/server"
	"vbrsim/internal/trunk"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// run executes the load test; split from main for testability.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "", "trafficd base URL, e.g. http://127.0.0.1:8080")
		streams = fs.Int("streams", 32, "concurrent streaming sessions to open")
		frames  = fs.Int("frames", 2000, "frames to pull per stream")
		step    = fs.Int("step", 0, "advance the whole fleet by this many frames via POST /v1/streams/step before reading")
		seed    = fs.Uint64("seed", 1000, "seed of the first stream (stream i uses seed+i)")
		sources = fs.Int("trunk", 0, "also smoke-test one trunk session of this many paper sources")
		verify  = fs.Bool("verify", true, "check every stream against offline generation with the same seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("missing -addr base URL")
	}
	if *streams < 1 || *frames < 1 {
		return fmt.Errorf("-streams and -frames must be at least 1 (got %d and %d)", *streams, *frames)
	}
	c := client.New(*addr)
	if err := c.Healthz(ctx); err != nil {
		return err
	}

	start := time.Now()

	// Open the whole fleet first: the batched step needs every session id.
	infos := make([]server.SessionInfo, *streams)
	errs := make([]error, *streams)
	var wg sync.WaitGroup
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := paperSpecFor(*seed + uint64(i))
			infos[i], errs[i] = c.CreateStream(ctx, &spec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("create stream %d: %w", i, err)
		}
	}

	// One batched step advances every session in a single request — the
	// simulation-driver shape the step endpoint exists for.
	if *step > 0 {
		ids := make([]string, len(infos))
		for i, info := range infos {
			ids[i] = info.ID
		}
		results, err := c.Step(ctx, ids, *step, false)
		if err != nil {
			return fmt.Errorf("batched step: %w", err)
		}
		for i, res := range results {
			if res.Pos != *step {
				return fmt.Errorf("session %s stepped to %d, want %d", ids[i], res.Pos, *step)
			}
		}
	}

	// Pull and verify in parallel; served frames must continue exactly
	// where the step left the session.
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runStream(ctx, c, infos[i], *seed+uint64(i), *step, *frames, *verify)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "stream %d: %v\n", i, err)
		}
	}
	total := float64((*streams - failed) * *frames)
	fmt.Fprintf(stdout, "%d/%d streams ok, %d frames each in %v (%.0f frames/s aggregate)\n",
		*streams-failed, *streams, *frames, elapsed.Round(time.Millisecond), total/elapsed.Seconds())
	if failed > 0 {
		return fmt.Errorf("%d of %d streams failed", failed, *streams)
	}

	if *sources > 0 {
		if err := runTrunkSmoke(ctx, c, *sources, *seed, *frames, *verify); err != nil {
			return fmt.Errorf("trunk smoke: %w", err)
		}
		fmt.Fprintf(stdout, "trunk smoke ok: %d sources, %d frames verified\n", *sources, *frames)
	}
	return nil
}

func paperSpecFor(seed uint64) modelspec.Spec {
	spec := modelspec.Paper()
	spec.Seed = seed
	return spec
}

// runStream pulls all frames of one already-open session in two requests
// (one when frames is 1), testing session-position continuity, optionally
// verifies against offline generation at the stepped offset, and closes
// the session.
func runStream(ctx context.Context, c *client.Client, info server.SessionInfo, seed uint64, offset, frames int, verify bool) error {
	defer c.CloseStream(ctx, info.ID)

	half := frames / 2
	got, err := readFrames(ctx, c, info.ID, half)
	if err != nil {
		return err
	}
	rest, err := c.Frames(ctx, info.ID, -1, frames-half)
	if err != nil {
		return err
	}
	got = append(got, rest...)
	if len(got) != frames {
		return fmt.Errorf("got %d frames, want %d", len(got), frames)
	}
	if !verify {
		return nil
	}
	spec := paperSpecFor(seed)
	want, err := spec.Frames(ctx, 0, offset+frames, 0)
	if err != nil {
		return err
	}
	for i := range got {
		if got[i] != want[offset+i] {
			return fmt.Errorf("frame %d: server %v, offline %v", offset+i, got[i], want[offset+i])
		}
	}
	return nil
}

// runTrunkSmoke creates one trunk session of n homogeneous paper sources,
// reads, batch-steps, and seeks it, verifying every returned frame against
// the offline trunk engine — the full trunk-session surface in one pass.
func runTrunkSmoke(ctx context.Context, c *client.Client, n int, seed uint64, frames int, verify bool) error {
	paper := modelspec.Paper()
	spec := modelspec.TrunkSpec{
		Seed: seed + 1<<32,
		Components: []modelspec.TrunkComponent{
			{Count: n, Spec: modelspec.Spec{ACF: paper.ACF, Marginal: paper.Marginal}},
		},
	}
	info, err := c.CreateTrunk(ctx, &spec)
	if err != nil {
		return err
	}
	defer c.CloseStream(ctx, info.ID)
	if info.Kind != "trunk" || info.Sources != n {
		return fmt.Errorf("trunk session info: kind=%q sources=%d, want trunk/%d", info.Kind, info.Sources, n)
	}

	half := frames / 2
	got, err := readFrames(ctx, c, info.ID, half)
	if err != nil {
		return err
	}
	// Step the trunk session through the batched endpoint with frames
	// included; it serves the second half.
	results, err := c.Step(ctx, []string{info.ID}, frames-half, true)
	if err != nil {
		return err
	}
	if len(results) != 1 || len(results[0].Frames) != frames-half {
		return fmt.Errorf("trunk step results: %+v", results)
	}
	got = append(got, results[0].Frames...)
	if !verify {
		return nil
	}

	tr, err := trunk.Open(ctx, &spec, trunk.Options{})
	if err != nil {
		return err
	}
	defer tr.Close()
	want := make([]float64, frames)
	tr.Fill(want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("trunk frame %d: server %v, offline %v", i, got[i], want[i])
		}
	}

	// Seek replay through from=: the session must land back on the offline
	// trace mid-stream.
	probe, err := c.Frames(ctx, info.ID, frames/4, min(64, frames-frames/4))
	if err != nil {
		return err
	}
	for i := range probe {
		if math.Float64bits(probe[i]) != math.Float64bits(want[frames/4+i]) {
			return fmt.Errorf("trunk replay frame %d: %v, want %v", frames/4+i, probe[i], want[frames/4+i])
		}
	}
	return nil
}

// readFrames reads the next n frames of a session, sending no request
// when n is 0 (the server rejects n=0).
func readFrames(ctx context.Context, c *client.Client, id string, n int) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	return c.Frames(ctx, id, -1, n)
}
