package modelspec

import (
	"context"

	"vbrsim/internal/dist"
	"vbrsim/internal/hosking"
	"vbrsim/internal/rng"
)

// EngineTruncated is the AR(p) fast recursion with the exact transform —
// the historical serving path, bit-compatible with every pre-engine spec
// (its golden traces are unchanged).
const EngineTruncated = "truncated"

// truncatedEngine carries an O(p) AR recursion and history per session
// (p≈361 for the paper model): the most expensive class.
var truncatedEngine = engine{
	name:     EngineTruncated,
	cost:     8,
	gaussian: true,
	validate: validateGaussian,
	open: func(ctx context.Context, s *Spec, tol float64) (*Stream, error) {
		g, err := s.gaussianState(ctx, tol, nil)
		if err != nil {
			return nil, err
		}
		src := &truncSource{gen: hosking.NewTruncatedGenerator(g.trunc, rng.New(s.Seed))}
		src.st = Stream{src: src, g: g, seed: s.Seed}
		return &src.st, nil
	},
}

type truncSource struct {
	st  Stream
	gen *hosking.TruncatedGenerator
}

func (s *truncSource) Fill(out []float64) {
	tr := s.st.g.tr
	for i := range out {
		out[i] = tr.Apply(s.gen.Next())
	}
}

// SeekCtx replays from the seed on a backward seek, O(p) per skipped frame.
// Replay skips the marginal transform, which is stateless.
func (s *truncSource) SeekCtx(ctx context.Context, pos int) error {
	if pos < s.gen.Pos() {
		s.gen.Reseed(s.st.seed)
	}
	return replay(ctx, pos-s.gen.Pos(), func() { s.gen.Next() })
}

// Reseed re-keys in place: bit-identical to a fresh generator, but without
// allocating (pooled trunk components reseed on every replication).
func (s *truncSource) Reseed(seed uint64)          { s.gen.Reseed(seed) }
func (s *truncSource) Pos() int                    { return s.gen.Pos() }
func (s *truncSource) Close()                      {}
func (s *truncSource) MeanRate() float64           { return s.st.g.mean }
func (s *truncSource) Marginal() dist.Distribution { return s.st.g.tr.Target }
