// Queue-feed adapter: a trunk as a Lindley-recursion arrival process.
//
// PathSource plays a trunk spec into the Monte-Carlo/importance-sampling
// estimators (one re-keyed aggregate path per replication). Copies of one
// queue.PathSource are superposed by queue.Superposition instead.
package trunk

import (
	"context"
	"fmt"
	"sync"

	"vbrsim/internal/modelspec"
	"vbrsim/internal/rng"
)

// PathSource adapts a trunk spec to queue.PathSourceInto: each replication
// re-keys a pooled trunk from the replication rng (Reseed allocates
// nothing) and plays the aggregate path. Safe for concurrent use by the
// estimator worker pools; the free list holds at most one trunk per
// concurrent caller.
type PathSource struct {
	spec *modelspec.TrunkSpec
	opt  Options
	mean float64

	mu   sync.Mutex
	free []*Trunk
}

// NewPathSource validates the spec and opens one trunk eagerly — warming
// every component plan through the shared cache so later pool misses
// cannot fail — then parks it on the free list.
func NewPathSource(ctx context.Context, spec *modelspec.TrunkSpec, opt Options) (*PathSource, error) {
	t, err := Open(ctx, spec, opt)
	if err != nil {
		return nil, err
	}
	return &PathSource{spec: spec, opt: opt, mean: t.MeanRate(), free: []*Trunk{t}}, nil
}

// MeanRate returns the aggregate stationary mean (bytes per frame).
func (s *PathSource) MeanRate() float64 { return s.mean }

// Close releases every pooled trunk. Concurrent ArrivalPath calls must have
// drained first.
func (s *PathSource) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.free {
		t.Close()
	}
	s.free = nil
}

func (s *PathSource) get() *Trunk {
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		t := s.free[n-1]
		s.free = s.free[:n-1]
		s.mu.Unlock()
		return t
	}
	s.mu.Unlock()
	t, err := Open(context.Background(), s.spec, s.opt)
	if err != nil {
		// Plans were warmed by NewPathSource; a failure here means the spec
		// mutated after construction, which is a caller bug.
		panic(fmt.Sprintf("trunk: pooled reopen failed: %v", err))
	}
	return t
}

func (s *PathSource) put(t *Trunk) {
	s.mu.Lock()
	s.free = append(s.free, t)
	s.mu.Unlock()
}

// ArrivalPath draws one aggregate path of k frames.
func (s *PathSource) ArrivalPath(r *rng.Source, k int) []float64 {
	buf := make([]float64, k)
	s.ArrivalPathInto(r, buf)
	return buf
}

// ArrivalPathInto re-keys a pooled trunk from r and fills buf with one
// aggregate path. Zero allocations once the free list is warm.
func (s *PathSource) ArrivalPathInto(r *rng.Source, buf []float64) {
	t := s.get()
	t.Reseed(r.Uint64())
	t.Fill(buf)
	s.put(t)
}
