// ATM adaptation and statistical multiplexing. The paper's queue consumes
// abstract "cells per slot"; this file supplies the two pieces a real ATM
// multiplexer study needs on top of it: segmentation of frame bytes into
// fixed-payload cells (with the frame-spreading strategy of Ismail et al.,
// the paper's ref. [15]) and superposition of several independent VBR
// sources into one aggregate arrival process (the statistical-multiplexing
// setting the introduction motivates).
package queue

import (
	"errors"
	"math"
	"sync"

	"vbrsim/internal/rng"
)

// ATMCellPayload is the usable payload of one ATM cell in bytes (48 of the
// 53-byte cell).
const ATMCellPayload = 48

// SegmentIntoCells converts a bytes-per-frame sequence into cells-per-slot:
// each frame's bytes become ceil(bytes/payload) cells, spread as evenly as
// possible over slotsPerFrame consecutive slots (slotsPerFrame = 1 keeps
// the per-frame burst intact). The result has
// len(frameBytes)*slotsPerFrame slots.
func SegmentIntoCells(frameBytes []float64, payload, slotsPerFrame int) ([]float64, error) {
	if payload <= 0 {
		return nil, errors.New("queue: non-positive cell payload")
	}
	if slotsPerFrame <= 0 {
		return nil, errors.New("queue: non-positive slots per frame")
	}
	out := make([]float64, len(frameBytes)*slotsPerFrame)
	for i, b := range frameBytes {
		if b < 0 {
			return nil, errors.New("queue: negative frame size")
		}
		cells := int(math.Ceil(b / float64(payload)))
		base := cells / slotsPerFrame
		extra := cells % slotsPerFrame
		for s := 0; s < slotsPerFrame; s++ {
			n := base
			// The first `extra` slots of the frame carry one extra cell.
			if s < extra {
				n++
			}
			out[i*slotsPerFrame+s] = float64(n)
		}
	}
	return out, nil
}

// Superposition multiplexes N independent copies of a base source: each
// replication draws N independent paths (from split random sources) and
// sums them slot-wise. It implements PathSource itself, so superposed
// traffic drops into every estimator unchanged.
type Superposition struct {
	Base PathSource
	N    int
}

// ArrivalPath draws and sums N independent paths.
func (s Superposition) ArrivalPath(r *rng.Source, k int) []float64 {
	sum := make([]float64, k)
	s.ArrivalPathInto(r, sum)
	return sum
}

// ArrivalPathInto sums N independent paths into buf. When the base source
// also supports buffer reuse the per-source path goes through a pooled
// scratch slice, so a superposition of hundreds of sources performs zero
// path allocations per replication.
func (s Superposition) ArrivalPathInto(r *rng.Source, buf []float64) {
	if s.N <= 0 {
		panic("queue: Superposition with non-positive N")
	}
	for j := range buf {
		buf[j] = 0
	}
	k := len(buf)
	if base, ok := s.Base.(PathSourceInto); ok {
		scratch := scratchSlice(k)
		defer releaseScratch(scratch)
		for i := 0; i < s.N; i++ {
			base.ArrivalPathInto(r.Split(), *scratch)
			for j, v := range *scratch {
				buf[j] += v
			}
		}
		return
	}
	for i := 0; i < s.N; i++ {
		path := s.Base.ArrivalPath(r.Split(), k)
		for j := range buf {
			buf[j] += path[j]
		}
	}
}

// scratchPool recycles per-replication path buffers across goroutines.
var scratchPool sync.Pool

func scratchSlice(k int) *[]float64 {
	if p, ok := scratchPool.Get().(*[]float64); ok && cap(*p) >= k {
		*p = (*p)[:k]
		return p
	}
	s := make([]float64, k)
	return &s
}

func releaseScratch(p *[]float64) { scratchPool.Put(p) }
