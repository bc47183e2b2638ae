package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"vbrsim/internal/modelspec"
)

// record is one served frames response, kept for verification after the
// window: which session served it, from which position, and the hash of
// its frames.
type record struct {
	session int
	seed    uint64
	start   int
	hash    uint64
}

// verdict counts verification checks and their failures; failures count in
// the run's failed operations and make the command exit nonzero.
type verdict struct {
	checked int
	bad     int
	errs    []string // the first few failures, for the log
}

func (v *verdict) fail(format string, args ...any) {
	v.bad++
	if len(v.errs) < 8 {
		v.errs = append(v.errs, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) add(o verdict) {
	v.checked += o.checked
	v.bad += o.bad
	for _, e := range o.errs {
		if len(v.errs) < 8 {
			v.errs = append(v.errs, e)
		}
	}
}

// checkContiguous checks that each session's responses tile its stream
// from frame 0 without gap or overlap: every read continued exactly where
// the session's previous read ended. It is one check per session.
func checkContiguous(recs []record, sessions, n int) verdict {
	starts := make([][]int, sessions)
	for _, r := range recs {
		starts[r.session] = append(starts[r.session], r.start)
	}
	var v verdict
	for s, st := range starts {
		v.checked++
		sort.Ints(st)
		for k, x := range st {
			if x != k*n {
				v.fail("session %d: response %d starts at %d, want %d", s, k, x, k*n)
				break
			}
		}
	}
	return v
}

// verificationSample picks the responses to regenerate: k chosen by the
// run's seed and, with lastPerSession, the last response of every session.
// The result holds each record index once, in ascending order.
func verificationSample(seed uint64, recs []record, k int, lastPerSession bool) []int {
	pick := map[int]bool{}
	if len(recs) <= k {
		for i := range recs {
			pick[i] = true
		}
	} else {
		g := inputStream(seed, "verification")
		for len(pick) < k {
			pick[g.intn(len(recs))] = true
		}
	}
	if lastPerSession {
		last := map[int]int{}
		for i, r := range recs {
			if j, ok := last[r.session]; !ok || r.start > recs[j].start {
				last[r.session] = i
			}
		}
		for _, i := range last {
			pick[i] = true
		}
	}
	out := make([]int, 0, len(pick))
	for i := range pick {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// regenerate recomputes the sampled responses offline with
// modelspec.Spec.Frames — the reference a served frame must match bit for
// bit — and compares hashes. specFor maps a record's session seed to its
// spec. The work fans out over GOMAXPROCS goroutines.
func regenerate(ctx context.Context, specFor func(seed uint64) modelspec.Spec, n int, recs []record, idx []int) verdict {
	workers := runtime.GOMAXPROCS(0)
	out := make([]verdict, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := &out[g]
			for j := g; j < len(idx); j += workers {
				r := recs[idx[j]]
				v.checked++
				spec := specFor(r.seed)
				want, err := spec.Frames(ctx, r.start, n, 0)
				if err != nil {
					v.fail("session %d: offline frames at %d: %v", r.session, r.start, err)
					continue
				}
				if frameHash(want) != r.hash {
					v.fail("session %d (seed %d): frames [%d, %d) differ from offline generation", r.session, r.seed, r.start, r.start+n)
				}
			}
		}(g)
	}
	wg.Wait()
	var v verdict
	for _, o := range out {
		v.add(o)
	}
	return v
}
