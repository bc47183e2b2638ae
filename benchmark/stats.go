package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is decided by a handful of
// requests, so it moves from run to run on noise alone.
const minBeyond = 10

// failedLatency stands in for a failed or refused request in a latency
// sample: it counts as missing every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// rankIndex is the nearest-rank index of quantile p in a sorted sample of n.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile sorts lat in place and returns its quantile p. When fewer than
// minBeyond samples lie beyond p, it returns the highest quantile that has
// minBeyond beyond it, or the maximum when there is none (minBeyond samples
// or fewer). The second result is the quantile returned.
func percentile(lat []time.Duration, p float64) (time.Duration, float64) {
	n := len(lat)
	if n == 0 {
		return 0, p
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	i := rankIndex(p, n)
	if n-1-i < minBeyond {
		i = n - 1 - minBeyond
		if i < 0 {
			i = n - 1
		}
		p = float64(i+1) / float64(n)
	}
	return lat[i], p
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to milliseconds; a failed request's stand-in maps
// to the largest finite float so the result stays valid JSON.
func ms(d time.Duration) float64 {
	if d == failedLatency {
		return math.MaxFloat64
	}
	return float64(d) / 1e6
}

// rateQuantile is the quantile of a window's per-second rates that
// frames_per_s reports: the upper quartile. Interference from other tenants
// of the host only ever slows the benchmark down, and part of it comes in
// episodes of a few seconds, which this reading leaves out unless they
// cover more than a quarter of the window; a change that slows every second
// still moves it. Drift of the host's speed over minutes moves it all the
// same: CALIBRATION.json records the run-to-run spreads on a shared 2-vCPU
// host.
const rateQuantile = 0.75

// quantile returns the nearest-rank quantile q of xs without modifying xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(q, len(s))]
}

// slicer counts work completed in consecutive one-second slices of a
// measurement window.
type slicer struct {
	begin  time.Time
	counts []float64
}

func newSlicer(begin time.Time, window time.Duration) *slicer {
	n := int(window / time.Second)
	if n < 1 {
		n = 1
	}
	return &slicer{begin: begin, counts: make([]float64, n)}
}

// add credits work done over [from, to] to the slices that interval
// overlaps, in proportion to the overlap, so that a rate is not quantized
// to whole requests when a request is a sizeable part of a second. Work
// outside the window's whole slices is dropped.
func (s *slicer) add(from, to time.Time, work float64) {
	a, b := from.Sub(s.begin).Seconds(), to.Sub(s.begin).Seconds()
	if b <= a {
		if i := int(b); b >= 0 && i < len(s.counts) {
			s.counts[i] += work
		}
		return
	}
	for i := max(int(a), 0); i < len(s.counts) && float64(i) < b; i++ {
		lo, hi := max(a, float64(i)), min(b, float64(i+1))
		s.counts[i] += work * (hi - lo) / (b - a)
	}
}

// merge folds another goroutine's slices (same begin and window) into s.
func (s *slicer) merge(o *slicer) {
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
}

// rate returns the upper quartile (rateQuantile) of the per-second rates.
func (s *slicer) rate() float64 {
	return quantile(s.counts, rateQuantile)
}

// traceOverheadPct is how much slower the traced run's rate is than the
// untraced run's at the same seed, as a percentage of the untraced rate.
func traceOverheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}

// residualPct is the ladder's closure check: how far the sum of the rungs
// that make up a client call (the raw loopback round trip plus the client
// decode) lies from the call timed whole, as a percentage of the call.
func residualPct(call, raw, decode float64) float64 {
	if call <= 0 {
		return 0
	}
	return 100 * math.Abs(call-(raw+decode)) / call
}

// selfTime is the handler time no measured rung accounts for: registry
// lookup, lock wait, routing, headers and middleware. parallel is the fan-out
// width the handler spreads its per-frame work over (1 for a frames read).
func selfTime(handler, perFrame float64, frames, parallel int) float64 {
	return handler - perFrame*float64(frames)/float64(parallel)
}
