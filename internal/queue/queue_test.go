package queue

import (
	"math"
	"testing"
	"testing/quick"

	"vbrsim/internal/rng"
)

func TestEvolveKnownPath(t *testing.T) {
	arr := []float64{5, 0, 3, 10, 0}
	got := Evolve(0, arr, 2)
	want := []float64{3, 1, 2, 10, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Q[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if fo := FinalOccupancy(0, arr, 2); fo != 8 {
		t.Errorf("FinalOccupancy = %v, want 8", fo)
	}
}

func TestEvolveNonNegative(t *testing.T) {
	arr := []float64{0, 0, 0, 100, 0, 0}
	q := Evolve(5, arr, 10)
	for i, v := range q {
		if v < 0 {
			t.Fatalf("Q[%d] = %v < 0", i, v)
		}
	}
}

func TestEvolveInitialOccupancy(t *testing.T) {
	arr := []float64{1, 1, 1}
	got := Evolve(10, arr, 2)
	want := []float64{9, 8, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Q[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLindleyWorkloadIdentity(t *testing.T) {
	// Pathwise identity for Q0 = 0: Q_k = W_k - min_{0<=i<=k} W_i.
	r := rng.New(2)
	for rep := 0; rep < 100; rep++ {
		arr := make([]float64, 50)
		for i := range arr {
			arr[i] = r.Exp(0.5)
		}
		service := 2.3
		q := Evolve(0, arr, service)
		w := 0.0
		minW := 0.0
		for k := 0; k < len(arr); k++ {
			w += arr[k] - service
			want := w - minW
			if w < minW {
				minW = w
				want = 0
			}
			if math.Abs(q[k]-want) > 1e-9 {
				t.Fatalf("rep %d slot %d: Q=%v, W-minW=%v", rep, k, q[k], want)
			}
		}
	}
}

func TestDualityDistributionalIdentity(t *testing.T) {
	// For iid (exchangeable) arrivals and Q0=0,
	// P(Q_k > b) = P(max_{i<=k} W_i > b) holds in distribution. Compare the
	// two Monte-Carlo estimates on the same replication budget.
	r := rng.New(4)
	const reps = 20000
	const k = 60
	service := 1.4
	b := 4.0
	lindleyHits, supHits := 0, 0
	for rep := 0; rep < reps; rep++ {
		arr := make([]float64, k)
		for i := range arr {
			arr[i] = r.Exp(1)
		}
		if FinalOccupancy(0, arr, service) > b {
			lindleyHits++
		}
		if _, crossed := CrossingTime(arr, service, b); crossed {
			supHits++
		}
	}
	pL := float64(lindleyHits) / reps
	pS := float64(supHits) / reps
	if math.Abs(pL-pS) > 0.01 {
		t.Errorf("duality violated: P(Q_k>b)=%v vs P(sup W>b)=%v", pL, pS)
	}
	if pL < 0.01 {
		t.Fatalf("test event too rare (p=%v) to be meaningful", pL)
	}
}

func TestCrossingTimeExact(t *testing.T) {
	arr := []float64{1, 1, 5, 0}
	ct, ok := CrossingTime(arr, 1, 3.5)
	if !ok || ct != 3 {
		t.Errorf("CrossingTime = %d,%v, want 3,true", ct, ok)
	}
	if _, ok := CrossingTime(arr, 10, 1); ok {
		t.Error("crossing reported for overloaded service")
	}
}

// iidSource emits iid exponential arrivals with mean m.
type iidSource struct{ mean float64 }

func (s iidSource) ArrivalPath(r *rng.Source, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = r.Exp(1 / s.mean)
	}
	return out
}

func TestEstimateOverflowValidation(t *testing.T) {
	src := iidSource{mean: 1}
	if _, err := EstimateOverflow(src, 2, 5, 0, MCOptions{}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := EstimateOverflow(src, 0, 5, 10, MCOptions{}); err == nil {
		t.Error("zero service accepted")
	}
}

func TestEstimateOverflowDeterministic(t *testing.T) {
	src := iidSource{mean: 1}
	opt := MCOptions{Replications: 500, Seed: 9, Workers: 4}
	a, err := EstimateOverflow(src, 1.25, 10, 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateOverflow(src, 1.25, 10, 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.P != b.P || a.Hits != b.Hits {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
	// Worker count must not change the estimate.
	c, err := EstimateOverflow(src, 1.25, 10, 100, MCOptions{Replications: 500, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.P != c.P {
		t.Errorf("worker count changed estimate: %v vs %v", a.P, c.P)
	}
}

func TestEstimateOverflowMD1SanityBound(t *testing.T) {
	// M/D/1-like: exponential work arriving per slot, deterministic service.
	// For utilization 0.5 the stationary queue is light; P(Q > 50) must be
	// tiny, P(Q > 0.01) substantial.
	src := iidSource{mean: 1}
	res, err := EstimateOverflow(src, 2.0, 50, 400, MCOptions{Replications: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.01 {
		t.Errorf("P(Q>50) = %v, want ~0", res.P)
	}
	res2, err := EstimateOverflow(src, 2.0, 0.01, 400, MCOptions{Replications: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.P < 0.2 {
		t.Errorf("P(Q>0.01) = %v, want substantial", res2.P)
	}
	if res2.P <= res.P {
		t.Error("overflow probability must decrease in b")
	}
}

func TestEstimateOverflowMonotoneInBuffer(t *testing.T) {
	src := iidSource{mean: 1}
	prev := 1.1
	for _, b := range []float64{0, 2, 5, 10, 20} {
		res, err := EstimateOverflow(src, 1.1, b, 200, MCOptions{Replications: 3000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.P > prev+0.02 {
			t.Errorf("P(Q>%v) = %v exceeds P at smaller buffer %v", b, res.P, prev)
		}
		prev = res.P
	}
}

func TestResultFields(t *testing.T) {
	src := iidSource{mean: 1}
	res, err := EstimateOverflow(src, 1.2, 5, 200, MCOptions{Replications: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replications != 1000 {
		t.Errorf("Replications = %d", res.Replications)
	}
	if res.P < 0 || res.P > 1 {
		t.Errorf("P = %v", res.P)
	}
	if float64(res.Hits)/1000 != res.P {
		t.Errorf("Hits %d inconsistent with P %v", res.Hits, res.P)
	}
	// For an indicator, variance = p(1-p).
	wantVar := res.P * (1 - res.P)
	if math.Abs(res.Variance-wantVar) > 1e-9 {
		t.Errorf("Variance = %v, want %v", res.Variance, wantVar)
	}
	if res.P > 0 && math.Abs(res.NormVar-wantVar/(res.P*res.P)) > 1e-9 {
		t.Errorf("NormVar = %v", res.NormVar)
	}
}

func TestZeroProbabilityNormVarInfinite(t *testing.T) {
	src := iidSource{mean: 1}
	res, err := EstimateOverflow(src, 100, 1000, 10, MCOptions{Replications: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 || !math.IsInf(res.NormVar, 1) {
		t.Errorf("expected zero estimate with infinite NormVar, got %+v", res)
	}
}

func TestTraceOverflow(t *testing.T) {
	// Deterministic sawtooth: arrivals 3,0,3,0..., service 1.5 -> queue
	// oscillates; P(Q > 1) computable by hand.
	arr := make([]float64, 1000)
	for i := range arr {
		if i%2 == 0 {
			arr[i] = 3
		}
	}
	p, err := TraceOverflow(arr, 1.5, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Q alternates 1.5, 0, 1.5, 0, ... so exceeds 1 half the time.
	if math.Abs(p-0.5) > 0.01 {
		t.Errorf("TraceOverflow = %v, want 0.5", p)
	}
}

func TestTraceOverflowWarmup(t *testing.T) {
	arr := []float64{100, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	full, err := TraceOverflow(arr, 10, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := TraceOverflow(arr, 10, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if late >= full {
		t.Errorf("warmup did not reduce exceedance: %v vs %v", late, full)
	}
	if _, err := TraceOverflow(arr, 10, 5, 10); err == nil {
		t.Error("warmup >= len accepted")
	}
	if _, err := TraceOverflow(nil, 10, 5, 0); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestUtilizationService(t *testing.T) {
	mu, err := UtilizationService(3000, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if mu != 5000 {
		t.Errorf("mu = %v, want 5000", mu)
	}
	for _, u := range []float64{0, 1, -0.5, 1.5} {
		if _, err := UtilizationService(3000, u); err == nil {
			t.Errorf("utilization %v accepted", u)
		}
	}
	if _, err := UtilizationService(0, 0.5); err == nil {
		t.Error("zero mean accepted")
	}
}

func TestQuickLindleyInvariants(t *testing.T) {
	f := func(raw []float64, q0raw, svcRaw float64) bool {
		arr := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				arr = append(arr, math.Abs(v))
			}
		}
		if len(arr) == 0 {
			return true
		}
		q0 := math.Abs(q0raw)
		svc := math.Abs(svcRaw) + 0.001
		if math.IsNaN(q0) || math.IsInf(q0, 0) || math.IsInf(svc, 0) {
			return true
		}
		q := Evolve(q0, arr, svc)
		prev := q0
		for i, v := range q {
			if v < 0 {
				return false
			}
			// Single-slot growth is bounded by the arrival.
			if v > prev+arr[i] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvolve(b *testing.B) {
	r := rng.New(1)
	arr := make([]float64, 10000)
	for i := range arr {
		arr[i] = r.Exp(1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FinalOccupancy(0, arr, 1.2)
	}
}

func BenchmarkEstimateOverflow(b *testing.B) {
	src := iidSource{mean: 1}
	for i := 0; i < b.N; i++ {
		if _, err := EstimateOverflow(src, 1.25, 10, 200, MCOptions{Replications: 200, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
