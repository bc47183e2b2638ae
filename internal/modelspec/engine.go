package modelspec

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"vbrsim/internal/dist"
)

// engine is everything the program knows about one synthesis engine. Each
// engine lives in its own file (engine_<name>.go) holding its entry and its
// source; nothing outside this table branches on Spec.Engine.
type engine struct {
	name string
	// cost is the admission cost class in session units: the relative
	// steady-state expense of holding one open session (per-frame work plus
	// resident state).
	cost float64
	// gaussian marks engines that map a Gaussian background through the
	// spec's marginal transform: they have a Source decomposition, and their
	// cost grows with the correlation length their plan resolves.
	gaussian bool
	// ownMarginal marks engines that generate their own marginal; their
	// trunk components never inherit the trunk's shared marginal.
	ownMarginal bool
	// hasConfig reports whether a spec carries this engine's config block
	// (named after the engine); nil for engines that take none. Validate
	// rejects the block on any other engine.
	hasConfig func(s *Spec) bool
	// validate checks the engine-specific parts of a spec.
	validate func(s *Spec) error
	// open builds a validated spec's stream, positioned at frame 0.
	open func(ctx context.Context, s *Spec, tol float64) (*Stream, error)
}

// engines is the engine table, in the order error messages list them.
var engines = []*engine{&truncatedEngine, &blockEngine, &gopEngine, &tesEngine}

// engineFor returns the table entry for an engine name ("" is the
// truncated engine), or nil when the name is unknown.
func engineFor(name string) *engine {
	if name == "" {
		name = EngineTruncated
	}
	for _, e := range engines {
		if e.name == name {
			return e
		}
	}
	return nil
}

// Validate checks the spec without building plans.
func (s *Spec) Validate() error {
	e := engineFor(s.Engine)
	if e == nil {
		names := make([]string, len(engines))
		for i, o := range engines {
			names[i] = strconv.Quote(o.name)
		}
		last := len(names) - 1
		return fmt.Errorf("modelspec: unknown engine %q (want %s or %s)",
			s.Engine, strings.Join(names[:last], ", "), names[last])
	}
	if err := e.validate(s); err != nil {
		return err
	}
	for _, o := range engines {
		if o != e && o.hasConfig != nil && o.hasConfig(s) {
			return fmt.Errorf("modelspec: %s config requires engine %q", o.name, o.name)
		}
	}
	return nil
}

// kneeCostUnit scales the composite-ACF knee into the plan-size factor:
// the knee bounds the exponential-mixture region the AR plan must resolve,
// so it is the cheapest spec-only proxy for truncation order.
const kneeCostUnit = 256.0

// Cost scores the spec for admission control in session units: the
// engine's cost class, times a plan-size factor for Gaussian-background
// engines. Composite specs scale that factor with the knee; the other ACF
// families (farima, fgn) have no spec-level length knob and score 1. Cost
// reads only the spec (no plan is built), so admission can reject before
// any expensive work happens. The spec must be valid.
func (s *Spec) Cost() float64 {
	e := engineFor(s.Engine)
	if !e.gaussian {
		return e.cost
	}
	if s.ACF.Knee > 0 {
		return e.cost * (1 + float64(s.ACF.Knee)/kneeCostUnit)
	}
	return e.cost
}

// source is one engine's per-seed generator behind a Stream. A source is
// allocated together with the Stream it drives (its first field), so an
// open costs no allocation beyond the engine's own generator state, and
// the source reads the stream's shared state and seed from there.
type source interface {
	// Fill produces len(out) consecutive foreground frames.
	Fill(out []float64)
	// SeekCtx positions the source so the next frame is frame pos >= 0,
	// replaying from the seed where the engine cannot jump.
	SeekCtx(ctx context.Context, pos int) error
	// Reseed rewinds to frame 0 of the trace keyed by seed.
	Reseed(seed uint64)
	// Pos returns the index of the next frame.
	Pos() int
	// Close releases engine-side accounting.
	Close()
	// MeanRate returns the stationary mean frame size in bytes.
	MeanRate() float64
	// Marginal returns the analytic foreground marginal, or nil.
	Marginal() dist.Distribution
}

// seekCheckEvery is how many skipped frames a replaying seek generates
// between context polls: frequent enough that canceling a request aborts a
// long replay within milliseconds, rare enough to stay invisible in the
// per-frame cost.
const seekCheckEvery = 1 << 13

// replay advances a source n frames by calling step, polling ctx every
// seekCheckEvery frames. On cancellation the source is left wherever the
// replay reached, which is still a valid position.
func replay(ctx context.Context, n int, step func()) error {
	for i := 0; i < n; i++ {
		if i%seekCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		step()
	}
	return nil
}
