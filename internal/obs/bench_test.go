package obs

import "testing"

// The cost of the registry's hottest instrument and of a stage span, off
// and on.

// BenchmarkRegistryCounterAdd measures a lock-free CAS float counter add,
// the cost paid per streamed chunk and per observed worker-pool run.
func BenchmarkRegistryCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_counter_total", "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkSpanStartEndOff measures a span on the nil tracer — the price
// every instrumented call site pays when tracing is not requested.
func BenchmarkSpanStartEndOff(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		span := tr.Start("bench")
		span.End(nil)
	}
}

// BenchmarkSpanStartEndOn measures a live collect-only span, dominated by
// the two runtime.ReadMemStats calls that capture allocation deltas. Spans
// are per pipeline *stage* (a handful per run), so even microseconds here
// are far below the cost of the stage they time.
func BenchmarkSpanStartEndOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := NewTracer(nil)
		span := tr.Start("bench")
		span.End(nil)
	}
}
