package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"vbrsim/internal/modelspec"
)

// TestRegistryChurnStress hammers the session registry from 64 goroutines
// doing the full session lifecycle — create (streams and trunks), frames in
// every encoding, seek, batched step, delete — while the idle evictor
// sweeps concurrently. Run under -race (scripts/ci.sh does) it proves the
// registry/evictor/admission interplay is data-race-free;
// the invariants checked at the end prove no session is lost or
// double-closed and no accounting leaks:
//
//   - every created session is eventually deleted or evicted (404 on the
//     final delete pass is fine; anything else is a lost session),
//   - the registry size, admission cost, and active-sessions gauge all
//     drain to zero,
//   - the block-engine arena gauge returns to its pre-test baseline (a
//     double-close would underflow it, a missed close would leave residue).
func TestRegistryChurnStress(t *testing.T) {
	// The evictor sweeps every IdleTimeout/4 = 15 ms.
	s, ts := newTestServer(t, Options{MaxSessions: 96, IdleTimeout: 60 * time.Millisecond})
	arenaBaseline := arenaBytesGauge(t, ts.URL)

	const goroutines = 64
	iters := 24
	if testing.Short() {
		iters = 8
	}

	// The shared id pool: creators append, every op samples, the final
	// pass deletes whatever survived. Sessions may vanish under any user
	// (delete race, eviction), so 404 and step-Gone are normal outcomes.
	var (
		poolMu sync.Mutex
		pool   []string
	)
	addID := func(id string) {
		poolMu.Lock()
		pool = append(pool, id)
		poolMu.Unlock()
	}
	sampleIDs := func(rng *rand.Rand, n int) []string {
		poolMu.Lock()
		defer poolMu.Unlock()
		if len(pool) == 0 {
			return nil
		}
		// Distinct ids: a step lists each session at most once.
		ids := make([]string, 0, n)
		for _, i := range rng.Perm(len(pool))[:min(n, len(pool))] {
			ids = append(ids, pool[i])
		}
		return ids
	}

	paper := modelspec.Paper()
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			fail := func(format string, args ...any) {
				select {
				case errCh <- fmt.Errorf(format, args...):
				default:
				}
			}
			for it := 0; it < iters; it++ {
				switch op := rng.Intn(10); {
				case op < 3: // create a cheap TES stream
					spec := tesTestSpec(uint64(g*1000 + it))
					resp := postJSONNoFatal(ts.URL+"/v1/streams", &spec)
					if resp == nil {
						fail("g%d: create failed", g)
						return
					}
					var info SessionInfo
					err := decodeBody(resp, &info)
					switch {
					case resp.StatusCode == http.StatusCreated && err == nil:
						addID(info.ID)
					case resp.StatusCode == http.StatusTooManyRequests:
					default:
						fail("g%d: create: HTTP %d err %v", g, resp.StatusCode, err)
						return
					}
				case op == 3: // create a block-engine stream (arena accounting)
					spec := paperSpec(uint64(g*1000 + it))
					spec.Engine = modelspec.EngineBlock
					resp := postJSONNoFatal(ts.URL+"/v1/streams", &spec)
					if resp == nil {
						fail("g%d: block create failed", g)
						return
					}
					var info SessionInfo
					err := decodeBody(resp, &info)
					switch {
					case resp.StatusCode == http.StatusCreated && err == nil:
						addID(info.ID)
					case resp.StatusCode == http.StatusTooManyRequests:
					default:
						fail("g%d: block create: HTTP %d err %v", g, resp.StatusCode, err)
						return
					}
				case op == 4: // create a small trunk
					resp := postJSONNoFatal(ts.URL+"/v1/trunks", &modelspec.TrunkSpec{
						Seed: uint64(g*1000 + it + 1),
						Components: []modelspec.TrunkComponent{
							{Count: 2, Spec: modelspec.Spec{ACF: paper.ACF, Marginal: paper.Marginal}},
						},
					})
					if resp == nil {
						fail("g%d: trunk create failed", g)
						return
					}
					var info SessionInfo
					err := decodeBody(resp, &info)
					switch {
					case resp.StatusCode == http.StatusCreated && err == nil:
						addID(info.ID)
					case resp.StatusCode == http.StatusTooManyRequests:
					default:
						fail("g%d: trunk create: HTTP %d err %v", g, resp.StatusCode, err)
						return
					}
				case op < 7: // frames read, random encoding, sometimes a seek
					ids := sampleIDs(rng, 1)
					if ids == nil {
						continue
					}
					url := fmt.Sprintf("%s/v1/streams/%s/frames?n=%d", ts.URL, ids[0], 1+rng.Intn(48))
					if rng.Intn(3) == 0 {
						url += "&from=" + strconv.Itoa(rng.Intn(64))
					}
					switch rng.Intn(3) {
					case 0:
						url += "&format=frames"
					case 1:
						url += "&format=ndjson"
					}
					resp, err := http.Get(url)
					if err != nil {
						fail("g%d: frames: %v", g, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						fail("g%d: frames: HTTP %d", g, resp.StatusCode)
						return
					}
				case op < 9: // batched step over a random handful
					ids := sampleIDs(rng, 1+rng.Intn(4))
					if ids == nil {
						continue
					}
					resp := postJSONNoFatal(ts.URL+"/v1/streams/step",
						&StepRequest{IDs: ids, N: 1 + rng.Intn(32), IncludeFrames: rng.Intn(2) == 0})
					if resp == nil {
						fail("g%d: step failed", g)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						fail("g%d: step: HTTP %d", g, resp.StatusCode)
						return
					}
				default: // delete
					ids := sampleIDs(rng, 1)
					if ids == nil {
						continue
					}
					req, err := http.NewRequest("DELETE", ts.URL+"/v1/streams/"+ids[0], nil)
					if err != nil {
						fail("g%d: delete: %v", g, err)
						return
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						fail("g%d: delete: %v", g, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
						fail("g%d: delete: HTTP %d", g, resp.StatusCode)
						return
					}
				}
				if rng.Intn(4) == 0 {
					// Let some sessions cross the idle timeout so the evictor
					// races real traffic, not an empty registry.
					time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Drain: delete everything ever created. 404 means a concurrent delete
	// or the evictor got it first — both fine; any other status is a bug.
	for _, id := range pool {
		req, err := http.NewRequest("DELETE", ts.URL+"/v1/streams/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("drain delete %s: HTTP %d", id, resp.StatusCode)
		}
	}

	if got := len(s.reg.list()); got != 0 {
		t.Errorf("registry has %d sessions after drain, want 0 (lost or leaked sessions)", got)
	}
	if got := s.adm.usedCost(); got != 0 {
		t.Errorf("admission cost after drain = %v, want 0", got)
	}
	if got := arenaBytesGauge(t, ts.URL); got != arenaBaseline {
		t.Errorf("arena bytes after drain = %v, want baseline %v (missed or double close)", got, arenaBaseline)
	}
	scrape := scrapeMetrics(t, ts.URL)
	if !bytes.Contains(scrape, []byte("vbrsim_sessions_active 0")) {
		t.Error("sessions_active gauge did not drain to 0")
	}
}

// arenaBytesGauge scrapes the block-engine arena gauge (a process-global
// atomic, so stress invariants compare against a recorded baseline).
func arenaBytesGauge(t *testing.T, base string) float64 {
	t.Helper()
	for _, line := range bytes.Split(scrapeMetrics(t, base), []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("vbrsim_streamblock_arena_bytes "))
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest)), 64)
		if err != nil {
			t.Fatalf("bad arena gauge line %q: %v", line, err)
		}
		return v
	}
	t.Fatal("vbrsim_streamblock_arena_bytes not in the exposition")
	return 0
}
