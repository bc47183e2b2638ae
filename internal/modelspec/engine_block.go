package modelspec

import (
	"context"

	"vbrsim/internal/acf"
	"vbrsim/internal/dist"
	"vbrsim/internal/streamblock"
)

// EngineBlock is the overlapped-block Davies-Harte streaming engine:
// exact-FFT blocks with AR(p)-conditional stitching, the LUT transform, and
// O(1) seek in either direction.
const EngineBlock = "block"

// blockEngine amortizes FFT blocks over an arena per session.
var blockEngine = engine{
	name:     EngineBlock,
	cost:     4,
	gaussian: true,
	validate: validateGaussian,
	open: func(ctx context.Context, s *Spec, tol float64) (*Stream, error) {
		g, err := s.gaussianState(ctx, tol, buildBlockState)
		if err != nil {
			return nil, err
		}
		src := &blockSource{blk: g.eng.NewStream(s.Seed)}
		src.st = Stream{src: src, g: g, seed: s.Seed}
		return &src.st, nil
	},
}

// buildBlockState adds the block engine and the transform LUT to a spec's
// shared state. It uses NewEngine, not EngineFor: the engine must come from
// this spec's model, which the shared-state key pins and the truncation
// does not.
func buildBlockState(g *gaussian, model acf.Model) (err error) {
	if g.eng, err = streamblock.NewEngine(model, g.trunc, streamblock.Config{}); err != nil {
		return err
	}
	g.lut, err = g.tr.NewDefaultLUT()
	return err
}

type blockSource struct {
	st  Stream
	blk *streamblock.Stream
}

// Fill is the background block fill, then the LUT in place, with no
// intermediate buffer.
func (s *blockSource) Fill(out []float64) {
	s.blk.Fill(out)
	s.st.g.lut.ApplyTo(out, out)
}

// SeekCtx seeks in constant time either way and never reports cancellation.
func (s *blockSource) SeekCtx(_ context.Context, pos int) error {
	s.blk.Seek(pos)
	return nil
}

func (s *blockSource) Reseed(seed uint64)          { s.blk.Reseed(seed) }
func (s *blockSource) Pos() int                    { return s.blk.Pos() }
func (s *blockSource) Close()                      { s.blk.Close() }
func (s *blockSource) MeanRate() float64           { return s.st.g.mean }
func (s *blockSource) Marginal() dist.Distribution { return s.st.g.tr.Target }
