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
// (p≈361 for the paper model): the most expensive class. Its streams have
// lanes: FillStreams advances streams of one truncation in lockstep.
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

// fillWindow is how many streams FillStreams groups over at a time: the
// width of its bit set of streams already filled.
const fillWindow = 64

// FillStreams fills out[i] with the next len(out[i]) frames of sts[i], for
// every i: the same frames, and the same stream state afterwards, as
// sts[i].Fill(out[i]). No stream may appear twice.
//
// This is the truncated engine's lane capability. Truncated-engine streams
// that share a truncation (whatever their marginal) advance their Gaussian
// backgrounds in lockstep, hosking.Lanes per pass over the frozen AR row
// (hosking.FillLockstep, bit-identical to Next), and each then maps its
// chunk through its own transform. Apply is pure, so transforming the
// finished chunk gives the bits a per-frame Fill gives. Lanes are grouped
// among fillWindow consecutive streams at a time; every other stream fills
// alone.
func FillStreams(sts []*Stream, out [][]float64) {
	if len(sts) != len(out) {
		panic("modelspec: FillStreams needs one output per stream")
	}
	for lo := 0; lo < len(sts); lo += fillWindow {
		hi := min(lo+fillWindow, len(sts))
		var filled uint64
		for i := lo; i < hi; i++ {
			if filled&(1<<(i-lo)) != 0 {
				continue
			}
			head, ok := sts[i].src.(*truncSource)
			if !ok {
				sts[i].Fill(out[i])
				continue
			}
			var lanes [hosking.Lanes]*truncSource
			var gens [hosking.Lanes]*hosking.TruncatedGenerator
			var chunks [hosking.Lanes][]float64
			lanes[0], gens[0], chunks[0] = head, head.gen, out[i]
			k := 1
			for j := i + 1; j < hi && k < hosking.Lanes; j++ {
				if o, ok := sts[j].src.(*truncSource); ok && filled&(1<<(j-lo)) == 0 && o.st.g.trunc == head.st.g.trunc {
					filled |= 1 << (j - lo)
					lanes[k], gens[k], chunks[k] = o, o.gen, out[j]
					k++
				}
			}
			hosking.FillLockstep(gens[:k], chunks[:k])
			for l, ts := range lanes[:k] {
				ts.st.g.tr.ApplyTo(chunks[l], chunks[l])
			}
		}
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
