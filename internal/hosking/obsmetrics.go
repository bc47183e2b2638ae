package hosking

import "vbrsim/internal/obs"

// RegisterMetrics exposes the cache's counters and retained bytes on r as
// live functions, read at scrape time. Safe to call more than once per
// registry; re-registration is a no-op returning the existing collectors
// (which read this cache — register each cache on its own registry).
func (c *PlanCache) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("vbrsim_plan_cache_hits_total",
		"Plan cache requests served from an existing entry.",
		func() float64 { return float64(c.Stats().Hits) })
	r.CounterFunc("vbrsim_plan_cache_misses_total",
		"Plan cache requests that built their entry: an exact plan, or a truncation by order scan and prefix rebuild, without the plan.",
		func() float64 { return float64(c.Stats().Misses) })
	r.CounterFunc("vbrsim_plan_cache_build_seconds_total",
		"Wall time spent building plan cache misses.",
		func() float64 { return c.Stats().BuildTime.Seconds() })
	r.CounterFunc("vbrsim_plan_cache_evictions_total",
		"Ready plans and truncations dropped by the LRU cap.",
		func() float64 { return float64(c.Stats().Evictions) })
	r.CounterFunc("vbrsim_plan_cache_singleflight_waits_total",
		"Plan cache requests that waited on another caller's in-flight build.",
		func() float64 { return float64(c.Stats().SingleflightWaits) })
	r.GaugeFunc("vbrsim_plan_cache_bytes",
		"Float64 bytes the plan cache's ready entries retain: plans, truncation prefixes and verification tables.",
		func() float64 { return float64(c.Bytes()) })
}
