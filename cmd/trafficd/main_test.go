package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunServesAndDrains starts the daemon on an ephemeral port: run must
// print the address it listens on, answer /healthz there, and return nil
// once its context is canceled (the SIGTERM drain path).
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outR, outW := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, outW, &stderr)
		outW.Close()
	}()

	line, err := bufio.NewReader(outR).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the listen line: %v", err)
	}
	base, ok := strings.CutPrefix(strings.TrimSpace(line), "trafficd listening on ")
	if !ok {
		t.Fatalf("first stdout line %q does not give the address", line)
	}
	go io.Copy(io.Discard, outR)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz: HTTP %d %q, want 200 ok", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context was canceled")
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("stderr %q does not report the drain", stderr.String())
	}
}

// TestRunRejectsTuningFlags checks that flags naming fixed settings are
// errors, not silently ignored: the session table is one map, and the job
// pool and the drift threshold are constants.
func TestRunRejectsTuningFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "4"},
		{"-job-workers", "2"},
		{"-job-queue", "8"},
		{"-drift-threshold", "2"},
	} {
		err := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, io.Discard)
		if err == nil {
			t.Errorf("run %v: nil error, want an unknown-flag error", args)
		}
	}
}
