package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// HistogramQuantile estimates the q-quantile of a parsed histogram family
// from its cumulative _bucket samples — the scrape-side counterpart of
// Histogram.Quantile, used by the benchmark/ module (benchmark/counters.go)
// to read latency quantiles off the difference of two scrapes.
//
// match restricts the estimate to bucket samples whose label block contains
// the given substring (e.g. `endpoint="frames"`); the empty string matches
// every bucket, aggregating across children of a HistogramVec. The second
// return value is false when the family holds no matching observations.
func HistogramQuantile(f *MetricFamily, match string, q float64) (float64, bool) {
	if f == nil || f.Type != "histogram" || q < 0 || q > 1 {
		return 0, false
	}
	// Cumulative counts summed per bound across matching label sets.
	byBound := make(map[float64]float64)
	for _, s := range f.Samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		if match != "" && !strings.Contains(s.Labels, match) {
			continue
		}
		le, ok := parseLE(s.Labels)
		if !ok {
			continue
		}
		byBound[le] += s.Value
	}
	if len(byBound) == 0 {
		return 0, false
	}
	bounds := make([]float64, 0, len(byBound))
	for b := range byBound {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	total := byBound[bounds[len(bounds)-1]] // the +Inf bucket holds the count
	if total == 0 {
		return 0, false
	}
	target := q * total
	prevBound, prevCum := 0.0, 0.0
	for _, b := range bounds {
		cum := byBound[b]
		if cum >= target && cum > prevCum {
			if math.IsInf(b, 1) {
				// No upper edge: clamp to the highest finite bound.
				return prevBound, true
			}
			if prevCum == 0 && b <= 0 {
				// First bucket with a non-positive edge: no assumed zero
				// lower bound to interpolate from.
				return b, true
			}
			frac := (target - prevCum) / (cum - prevCum)
			return prevBound + (b-prevBound)*frac, true
		}
		if !math.IsInf(b, 1) {
			prevBound = b
		}
		prevCum = cum
	}
	return prevBound, true
}

// parseLE extracts the le label value from a rendered label block.
func parseLE(labels string) (float64, bool) {
	i := strings.Index(labels, `le="`)
	if i < 0 {
		return 0, false
	}
	rest := labels[i+len(`le="`):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(rest[:j], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
