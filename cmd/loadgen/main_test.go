package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"vbrsim/internal/server"
)

// TestLoadgen32Streams is the concurrency smoke test: 32 streams pulled in
// parallel from one in-process daemon, each verified bit-identical against
// offline generation. Under -race this exercises the session registry, the
// per-session locking, the shared plan cache, and the metrics counters.
func TestLoadgen32Streams(t *testing.T) {
	s := server.New(server.Options{MaxSessions: 64})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL, "-streams", "32", "-frames", "400", "-seed", "5000",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("loadgen: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "32/32 streams ok") {
		t.Fatalf("unexpected report: %s", out.String())
	}
}

// TestLoadgenStepAndTrunk drives the batched-stepping path and the trunk
// smoke mode against one in-process daemon: the fleet advances through
// POST /v1/streams/step before reading (verification then runs at the
// stepped offset), and a 4-source trunk session is created, stepped, read,
// and seek-replayed bit-identically to the offline trunk engine.
func TestLoadgenStepAndTrunk(t *testing.T) {
	s := server.New(server.Options{MaxSessions: 64})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL, "-streams", "8", "-frames", "300", "-step", "200",
		"-seed", "7000", "-trunk", "4",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("loadgen: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "8/8 streams ok") {
		t.Fatalf("unexpected report: %s", out.String())
	}
	if !strings.Contains(out.String(), "trunk smoke ok: 4 sources") {
		t.Fatalf("missing trunk smoke report: %s", out.String())
	}
}

func TestLoadgenMissingAddr(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(context.Background(), nil, &out, &errOut); err == nil {
		t.Fatal("run without -addr succeeded")
	}
}

// TestLoadgenOneFrame reads a single frame per stream and per trunk: the
// first half of the split read is empty and must be skipped, not sent as
// an n=0 request the server rejects.
func TestLoadgenOneFrame(t *testing.T) {
	s := server.New(server.Options{MaxSessions: 8})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", ts.URL, "-streams", "2", "-frames", "1", "-trunk", "2",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("loadgen: %v\nstderr: %s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "2/2 streams ok") ||
		!strings.Contains(out.String(), "trunk smoke ok: 2 sources, 1 frames verified") {
		t.Fatalf("unexpected report: %s", out.String())
	}
}

func TestLoadgenRejectsEmptyRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "http://127.0.0.1:1", "-frames", "0"},
		{"-addr", "http://127.0.0.1:1", "-streams", "0"},
	} {
		var out, errOut bytes.Buffer
		err := run(context.Background(), args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), "at least 1") {
			t.Errorf("run %v: error %v, want a flag error", args, err)
		}
	}
}
