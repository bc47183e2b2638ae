#!/bin/sh
# CI gate: formatting, build, vet, race-check (short mode), the full test
# suite, a trafficd daemon smoke test with a /metrics scrape gate, and a
# qsim telemetry smoke test.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...
# The vector kernels are amd64 assembly; off amd64 the Go loops are the
# only path. Vetting every package for arm64 keeps that build, and any
# other arm64 build break, failing here.
GOARCH=arm64 go vet ./...

echo "== arm64 fused multiply-add scan"
# The Go loops behind the fft, streamblock and hosking vector kernels are
# the only path off amd64 and the kernels' test oracle, so they must compute
# the amd64 bits on every architecture; so must TruncatedGenerator.Next,
# the lanes' bit reference, and the dist functions behind the exact
# transform's kernel (stdNormalQuantile, Normal.CDF, Normal.Quantile,
# Lognormal.Quantile). The arm64 compiler fuses x*y+z into one
# rounding unless an explicit float64() conversion rounds the product, so
# cross-build the packages' test binaries and require that every one of
# those functions is present and holds no FMADD/FMSUB/FNMADD/FNMSUB.
armdir=$(mktemp -d)
trap 'rm -rf "$armdir"' EXIT
GOARCH=arm64 go test -c -o "$armdir/fft.test" ./internal/fft
GOARCH=arm64 go test -c -o "$armdir/streamblock.test" ./internal/streamblock
GOARCH=arm64 go test -c -o "$armdir/hosking.test" ./internal/hosking
GOARCH=arm64 go test -c -o "$armdir/dist.test" ./internal/dist
go tool objdump -s '^vbrsim/internal/fft\.(stageRange|radix2|radix22|hermitianTileStages|hermitianScatter|hermitianScatterScaled|hermitianScatterConjProduct)$' \
    "$armdir/fft.test" >"$armdir/fused.txt"
go tool objdump -s '^vbrsim/internal/streamblock\.(arResidual|arResidualFrom)$' \
    "$armdir/streamblock.test" >>"$armdir/fused.txt"
go tool objdump -s '^vbrsim/internal/hosking\.(\(\*TruncatedGenerator\)\.Next|lanesGo)$' \
    "$armdir/hosking.test" >>"$armdir/fused.txt"
go tool objdump -s '^vbrsim/internal/dist\.(stdNormalQuantile|Normal\.CDF|Normal\.Quantile|Lognormal\.Quantile)$' \
    "$armdir/dist.test" >>"$armdir/fused.txt"
for fn in fft.stageRange fft.radix2 fft.radix22 fft.hermitianTileStages fft.hermitianScatter \
    fft.hermitianScatterScaled fft.hermitianScatterConjProduct \
    streamblock.arResidual streamblock.arResidualFrom \
    'hosking.(*TruncatedGenerator).Next' hosking.lanesGo \
    dist.stdNormalQuantile dist.Normal.CDF dist.Normal.Quantile dist.Lognormal.Quantile; do
    grep -qF "TEXT vbrsim/internal/$fn(SB)" "$armdir/fused.txt" \
        || { echo "arm64 scan: $fn not found in the test binary" >&2; exit 1; }
done
if grep -E '[[:space:]]F(N)?M(ADD|SUB)[DS][[:space:]]' "$armdir/fused.txt" >&2; then
    echo "arm64 scan: fused multiply-adds above in the kernels' Go loops" >&2
    exit 1
fi
rm -rf "$armdir"
trap - EXIT

echo "== go test -race -short"
go test -race -short ./...

echo "== go test"
go test ./...

echo "== benchmark module tests"
# benchmark/ is its own module, so the root go test never compiles it; it
# drives modelspec, server and statmon directly, so an API change there
# must not break it unnoticed.
(cd benchmark && go test ./...)

echo "== race gates"
# The registry churn stress at full strength (the -short run above uses
# reduced iterations): 64-goroutine churn with the idle evictor racing real
# traffic must leak no sessions, cost, or arena bytes.
go test -race -run 'TestRegistryChurnStress' -count=1 ./internal/server
# The server oracle at its -short size: random and scripted op sequences
# checked response by response against offline playback, then a phase in
# which goroutines share the server, each on its own sessions.
go test -race -short -run 'TestServerOracle' -count=1 ./internal/server
# Per-spec shared state (truncation, block engine, LUT, statmon reference)
# is read by every session of a spec at once: 32 goroutines opening,
# seeking and filling one spec from a cold plan cache must race-check clean
# and match serial Spec.Frames byte for byte.
go test -race -run 'TestSharedStateConcurrentOpens' -count=1 ./internal/modelspec

echo "== conformance -quick"
# Statistical acceptance gates: deterministic seeded checks that the
# backends still produce paper-conformant traffic (marginal, ACF, Hurst,
# cross-backend agreement, IS-vs-MC queue tails). Writes the
# machine-readable report. -workers 4 fans
# the replication loops out; the report is bit-identical at any setting
# (the race gate above covers the same worker pools via -race -short).
go run ./cmd/conformance -quick -workers 4 -out CONFORMANCE_1.json
# The trunk family (superposition determinism, Hurst preservation, mux
# gain) must be present in the suite, not just passing when it happens to
# run — a silently dropped family would otherwise pass the gate above.
for check in trunk-determinism trunk-hurst-preservation trunk-mux-gain; do
    grep -q "\"$check\"" CONFORMANCE_1.json \
        || { echo "conformance report missing $check" >&2; exit 1; }
done

echo "== perf gates"
# Host-independent perf gates: exact allocation counts, and timing
# ratios taken in one process (both sides interleaved, median of 11 pairs),
# so they hold on any host where absolute ns/op does not. Serving speed
# itself is gated by the benchmark/ module under the parent/change
# protocol (BENCHMARK.json bounds). Old gate -> replacement:
#   benchdiff DHPathRealInto, FFTHermitianReal, StreamBlockFill/16384,
#     StreamBlockRefill -> stream-long and session-churn frames_per_s;
#     TestPathEngineZeroAlloc,
#     TestDHSteadyStateZeroAlloc (PathInto, PathRealInto),
#     Test{Forward,RealPath}ZeroAlloc,
#     TestSteadyStateZeroAlloc (streamblock), TestStreamFillZeroAlloc
#   benchdiff StreamTruncatedFill/16384 -> step-fleet frames_per_s;
#     TestStreamFillZeroAlloc, TestForChunksInlineZeroAlloc
#   StreamStepAffinity -> step-fleet frames_per_s; TestStepLockstepRatio
#     (median lockstep/serial time of 8 truncated streams <= 0.75, with the
#     AVX2 lanes kernel and again with the Go loop), TestFillStreamsZeroAlloc
#   benchdiff TrunkFillSerial/s=64 -> TestTrunkFillZeroAllocSteadyState,
#     TestTrunkFillOverheadRatio (median trunk/components time <= 1.15)
#   benchdiff StreamBlockFillStatmon/off|on -> TestTapShareOfFill (median
#     time share of the tap against the truncated AR(p) recursion making the
#     same chunk <= 0.0090; the recursion alone, because a truncated fill
#     now includes the exact transform's vector kernel),
#     TestObserveZeroAlloc
#   capacity ramp smoke -> stream-short frames_per_s;
#     TestFramesRecordsAllocs (4- and 256-frame reads)
# Retained memory: TestTruncatedOpenRetainedBytes (exact HeapAlloc delta
#   of one cold paper-spec open: < 1 MiB truncated, < 4 MiB block) guards
#   that a served spec keeps its plan's O(p^2) prefix, not the 64 MiB plan,
#   and that the cache holds truncations, not plans, and that a TES open
#   stays < 1 KiB. TestSessionRetainedBytes (exact HeapAlloc delta per TES
#   session created through ServeHTTP with statmon on, at open and after one
#   observed read: < 3 KiB) guards the compact statmon monitor.
#   TestBlockSessionRetainedBytes (exact HeapAlloc delta per paper-spec block
#   session over 64 created through ServeHTTP, at open and after one read:
#   < 96 KiB) guards that a block session keeps only its raw block and
#   history and borrows refill scratch from its engine. All three skip
#   under -race.
# Allocation: TestColdOpenAllocatedBytes (exact TotalAlloc delta of one cold
#   paper-spec open with warm FFT tables: < 2 MiB truncated, < 4 MiB block)
#   guards that a truncation miss scans for its order over two rolling rows
#   and never allocates the 64 MiB triangle of the plan.
#   TestChurnCycleAllocatedBytes (exact TotalAlloc per cycle through
#   ServeHTTP of create block session, four 256-frame reads at four from
#   positions, delete: < 192 KiB) guards that a churned session allocates no
#   refill scratch of its own. Both skip under -race.
# Fast generation: TestGenerateFastRetainsNoPlan (plan-cache bytes after a
#   cold Model.Generate(8192, BackendHoskingFast): < 2 MiB) guards that the
#   offline fast path takes its truncation from the cache, never a 64 MiB plan.
# NormPairs: TestNormPairsRatio (median NormPairs/Norm time of 4096 pairs
#   <= 0.75) guards the batched normal draw behind every block refill.
# Vector kernels (amd64 with AVX2; skip elsewhere): TestPolarKernelRatio
#   (median polarAVX2/polar time over 4096 pairs <= 0.75),
#   TestButterflyKernelRatio (median radix22AVX2/radix22 time of the h = 8192
#   double stages <= 0.75), TestRadix2KernelRatio (median radix2AVX2/radix2
#   time over RealForward's middle stages at F = 4096 <= 0.75) and
#   TestResidualKernelRatio (median AVX2/Go AR residual time at p = 361
#   <= 0.75) and TestLanesKernelRatio (median AVX2/Go time of one 8-lane
#   truncated-AR arena pass at p = 361 <= 0.5) and TestExactKernelRatio
#   (median time of the exact transform's AVX2+FMA kernel against the
#   per-frame Apply loop over a 4096-frame path, lognormal target, <= 0.5)
#   guard that each assembly kernel pays for itself.
# Block engine: TestBlockVsTruncatedRatio (median time of a block-engine
#   fill of 2·B frames against the truncated AR(p) recursion's fill of as
#   many, paper spec, <= 0.13) guards what the block engine is for.
# The timing tests skip under -short and under -race, so no race run
# times instrumented code.
go test -count=3 -run '^(TestPathEngineZeroAlloc|TestDHSteadyStateZeroAlloc|TestForwardZeroAlloc|TestRealPathZeroAlloc|TestSteadyStateZeroAlloc|TestStreamFillZeroAlloc|TestFillStreamsZeroAlloc|TestStepLockstepRatio|TestForChunksInlineZeroAlloc|TestTrunkFillZeroAllocSteadyState|TestTrunkFillOverheadRatio|TestObserveZeroAlloc|TestTapShareOfFill|TestFramesRecordsAllocs|TestTruncatedOpenRetainedBytes|TestSessionRetainedBytes|TestBlockSessionRetainedBytes|TestColdOpenAllocatedBytes|TestChurnCycleAllocatedBytes|TestGenerateFastRetainsNoPlan|TestNormPairsRatio|TestPolarKernelRatio|TestButterflyKernelRatio|TestRadix2KernelRatio|TestResidualKernelRatio|TestLanesKernelRatio|TestExactKernelRatio|TestBlockVsTruncatedRatio)$' \
    ./internal/daviesharte ./internal/fft ./internal/streamblock ./internal/hosking \
    ./internal/modelspec ./internal/par ./internal/trunk ./internal/statmon \
    ./internal/server ./internal/rng ./internal/core ./internal/transform

echo "== fuzz smoke"
# Bounded runs of the native fuzz targets: spec decoding must never panic
# and quantile compaction must stay idempotent.
go test ./internal/modelspec -run '^$' -fuzz 'FuzzModelSpecDecode' -fuzztime=5s
go test ./internal/modelspec -run '^$' -fuzz 'FuzzTrunkSpecDecode' -fuzztime=5s
go test ./internal/modelspec -run '^$' -fuzz 'FuzzQuantileRoundTrip' -fuzztime=5s
# The binary frame protocol decoder must never panic and must classify
# every malformed input as truncated or oversized, nothing else.
go test ./internal/server -run '^$' -fuzz 'FuzzBinaryFrameDecode' -fuzztime=5s
# Op sequences decoded from fuzzed bytes must get exactly the responses the
# server oracle predicts. The server's coverage counters depend on goroutine
# scheduling, so a third to a half of all inputs look new. Minimizing one
# takes longer than the whole run and keeps nothing, so minimization is off
# and the run fuzzes fresh inputs instead (a failing input is still saved
# under testdata/fuzz). The inputs that look new go to a throwaway corpus:
# kept in the Go cache, hundreds a run would be replayed first next time
# and crowd out fuzzing.
fuzzdir=$(mktemp -d)
trap 'rm -rf "$fuzzdir"' EXIT
go test ./internal/server -run '^$' -fuzz 'FuzzServerOracle' -fuzztime=10s -fuzzminimizetime=0 \
    -args -test.fuzzcachedir="$fuzzdir"
rm -rf "$fuzzdir"
trap - EXIT
# The fused real-FFT forward kernel must stay bit-identical to the
# unfused reference on arbitrary inputs.
go test ./internal/fft -run '^$' -fuzz 'FuzzRealForwardVsReference' -fuzztime=5s
# The AVX2 radix-2² and radix-2 butterflies must stay bit-identical to
# their Go loops on arbitrary inputs at every table size and stage (skips
# without AVX2).
go test ./internal/fft -run '^$' -fuzz 'FuzzButterflyVsScalar' -fuzztime=5s
# The AR residual (16-row AVX2 kernel, then the four-row Go loop) must stay
# bit-identical to the row-at-a-time sum at arbitrary orders.
go test ./internal/streamblock -run '^$' -fuzz 'FuzzResidualVsRows' -fuzztime=5s
# The batched normal draw must emit exactly the values, and leave exactly
# the generator state, of the same number of successive Norm calls.
go test ./internal/rng -run '^$' -fuzz 'FuzzNormPairsVsNorm' -fuzztime=5s
# The lockstep truncated-AR lanes must emit exactly the values, and leave
# exactly the generator state, of successive Next calls on each lane.
go test ./internal/hosking -run '^$' -fuzz 'FuzzLockstepVsNext' -fuzztime=5s
# The AVX2 lanes kernel must stay bit-identical to its Go loop on arbitrary
# arenas, edge values included, at every order (skips without AVX2).
go test ./internal/hosking -run '^$' -fuzz 'FuzzLanesKernelVsGo' -fuzztime=5s
# The exact transform's vector kernel must give T.Apply's bits on arbitrary
# frames, locations and scales, for normal and lognormal targets (skips
# without AVX2 and FMA).
go test ./internal/transform -run '^$' -fuzz 'FuzzExactKernelVsApply' -fuzztime=5s

echo "== trafficd smoke test"
# Start the daemon on an ephemeral port, hit /healthz and a 100-frame
# stream, then shut it down with SIGTERM (exercising graceful drain).
tmpdir=$(mktemp -d)
# Set before the trap reads it: under set -u an unset daemon_pid would turn
# any failure before the launch into "daemon_pid: unbound variable".
daemon_pid=
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/trafficd" ./cmd/trafficd
# -statmon-sample 1 observes every served chunk (so the drift smoke below
# converges quickly); the access log lands in the tmpdir for validation.
"$tmpdir/trafficd" -addr 127.0.0.1:0 -statmon-sample 1 \
    -access-log "$tmpdir/access.ndjson" >"$tmpdir/out" 2>"$tmpdir/err" &
daemon_pid=$!
base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's#^trafficd listening on \(http://.*\)$#\1#p' "$tmpdir/out")
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "trafficd did not report its address" >&2; cat "$tmpdir/err" >&2; exit 1; }

curl -sSf "$base/healthz" | grep -q ok
sid=$(curl -sSf -X POST "$base/v1/streams" \
    -d '{"name":"smoke","seed":7,"acf":{"weights":[1],"rates":[0.005869930388252342],"l":1.59468,"beta":0.2,"knee":60},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4},"h":0.9}' \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$sid" ] || { echo "stream creation failed" >&2; exit 1; }
frames=$(curl -sSf "$base/v1/streams/$sid/frames?n=100" | wc -l)
[ "$frames" -eq 100 ] || { echo "expected 100 frames, got $frames" >&2; exit 1; }
curl -sSf "$base/metrics" | grep -q '^vbrsim_frames_streamed_total 100$'
# Record protocol: 100 frames are one record (a 4-byte count of 100 and
# 800 payload bytes) followed by the zero-count terminator record. The raw
# float64 encoding is gone, so format=binary is a 400.
curl -sSf -H 'Accept: application/x-vbrsim-frames' \
    "$base/v1/streams/$sid/frames?n=100" >"$tmpdir/records"
rbytes=$(wc -c <"$tmpdir/records")
[ "$rbytes" -eq $((4 + 800 + 4)) ] || { echo "expected 808 record bytes, got $rbytes" >&2; exit 1; }
[ "$(head -c 4 "$tmpdir/records" | od -An -tx1 | tr -d ' \n')" = 64000000 ] \
    || { echo "record count is not 100" >&2; exit 1; }
[ "$(tail -c 4 "$tmpdir/records" | od -An -tx1 | tr -d ' \n')" = 00000000 ] \
    || { echo "record body does not end in a zero-count terminator" >&2; exit 1; }
bcode=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/streams/$sid/frames?n=1&format=binary")
[ "$bcode" -eq 400 ] || { echo "format=binary: expected HTTP 400, got $bcode" >&2; exit 1; }

# Trunk-session smoke: a 4-source superposition served through the same
# frames path, visible in the trunk gauges.
tid=$(curl -sSf -X POST "$base/v1/trunks" \
    -d '{"name":"trunk-smoke","seed":9,"components":[{"count":4,"spec":{"acf":{"weights":[1],"rates":[0.005869930388252342],"l":1.59468,"beta":0.2,"knee":60},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4},"h":0.9}}]}' \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$tid" ] || { echo "trunk creation failed" >&2; exit 1; }
tframes=$(curl -sSf "$base/v1/streams/$tid/frames?n=50" | wc -l)
[ "$tframes" -eq 50 ] || { echo "expected 50 trunk frames, got $tframes" >&2; exit 1; }
curl -sSf "$base/metrics" | grep -q '^vbrsim_trunk_sessions_active 1$'
curl -sSf "$base/metrics" | grep -q '^vbrsim_trunk_sources_active 4$'

# Metrics scrape gate: every metric name documented in DESIGN.md §9 must be
# served with a TYPE header. Keep this list in sync with DESIGN.md and
# internal/server/metrics_expfmt_test.go (documentedMetrics).
curl -sSf "$base/metrics" >"$tmpdir/metrics"
for name in \
    vbrsim_sessions_active vbrsim_sessions_total vbrsim_streams_rejected_total \
    vbrsim_frames_streamed_total vbrsim_stream_request_frames \
    vbrsim_job_duration_seconds vbrsim_jobs_failed_total vbrsim_jobs_rejected_total \
    vbrsim_estimator_completed vbrsim_estimator_p vbrsim_estimator_std_err \
    vbrsim_estimator_norm_var vbrsim_estimator_variance_ratio vbrsim_estimator_reps_per_sec \
    vbrsim_par_runs_total vbrsim_par_tasks_total vbrsim_par_busy_seconds_total \
    vbrsim_par_peak_in_flight vbrsim_par_utilization \
    vbrsim_plan_cache_hits_total vbrsim_plan_cache_misses_total \
    vbrsim_plan_cache_evictions_total vbrsim_plan_cache_singleflight_waits_total \
    vbrsim_plan_cache_bytes vbrsim_plan_cache_build_seconds_total \
    vbrsim_streamblock_refills_total vbrsim_streamblock_arena_bytes \
    vbrsim_streamblock_block_ns \
    vbrsim_trunk_sessions_active vbrsim_trunk_sources_active vbrsim_trunk_fanout_ns \
    vbrsim_server_admission_rejects_total \
    vbrsim_server_evictions_total vbrsim_server_admission_cost_used \
    vbrsim_server_sweep_seconds vbrsim_server_swept_sessions_total \
    vbrsim_http_requests_total vbrsim_http_errors_total \
    vbrsim_http_request_seconds vbrsim_http_in_flight \
    vbrsim_server_frame_emit_seconds \
    vbrsim_statmon_frames_sampled_total vbrsim_statmon_hurst \
    vbrsim_statmon_acf_err vbrsim_statmon_drift \
    vbrsim_statmon_sessions_monitored vbrsim_statmon_sessions_drifting
do
    grep -q "^# TYPE $name " "$tmpdir/metrics" \
        || { echo "documented metric $name missing from /metrics" >&2; exit 1; }
done
echo "metrics scrape gate OK"

# Statmon drift smoke: two FGN streams serve identical H=0.75 traffic, but
# one claims h=0.9 in its spec. After 2^17 frames each (stepped in one
# batched request), the lying stream's online Hurst estimate sits ~0.15 off
# its own claim — past the tolerance — while the honest stream conforms.
cid=$(curl -sSf -X POST "$base/v1/streams" \
    -d '{"name":"conforming","seed":31,"engine":"block","acf":{"kind":"fgn","hurst":0.75},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4},"h":0.75}' \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
bid=$(curl -sSf -X POST "$base/v1/streams" \
    -d '{"name":"wrong-h","seed":32,"engine":"block","acf":{"kind":"fgn","hurst":0.75},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4},"h":0.9}' \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$cid" ] && [ -n "$bid" ] || { echo "drift-smoke stream creation failed" >&2; exit 1; }
curl -sSf -X POST "$base/v1/streams/step" \
    -d "{\"ids\":[\"$cid\",\"$bid\"],\"n\":131072}" >/dev/null
status=$(curl -sSf "$base/v1/status")
echo "$status" | grep -q "\"drifting_ids\":\[\"$bid\"\]" \
    || { echo "wrong-H stream not flagged as drifting: $status" >&2; exit 1; }
echo "$status" | grep -q '"drifting":1' \
    || { echo "expected exactly one drifting session: $status" >&2; exit 1; }
cstats=$(curl -sSf "$base/v1/sessions/$cid/stats")
echo "$cstats" | grep -q '"drifting":false' \
    || { echo "conforming stream reported drifting: $cstats" >&2; exit 1; }
# The fleet gauges are a 1s-cached rollup; wait out the TTL so the scrape
# reflects the post-step fleet.
sleep 1.1
curl -sSf "$base/metrics" >"$tmpdir/metrics_drift"
grep -q '^vbrsim_statmon_sessions_drifting 1$' "$tmpdir/metrics_drift" \
    || { echo "drifting-sessions gauge not 1" >&2; exit 1; }
drift=$(sed -n 's/^vbrsim_statmon_drift //p' "$tmpdir/metrics_drift")
awk -v d="$drift" 'BEGIN { exit !(d >= 1) }' \
    || { echo "drift gauge $drift below alert threshold 1" >&2; exit 1; }
echo "statmon drift smoke OK"

# Access-log gate: every request above must have produced one NDJSON line
# carrying a request id; every line must be a single JSON object.
[ -s "$tmpdir/access.ndjson" ] || { echo "access log is empty" >&2; exit 1; }
if grep -qv '^{.*}$' "$tmpdir/access.ndjson"; then
    echo "access log contains non-JSON lines:" >&2
    grep -v '^{.*}$' "$tmpdir/access.ndjson" >&2
    exit 1
fi
grep -q '"type":"access"' "$tmpdir/access.ndjson" \
    || { echo "access log has no access events" >&2; exit 1; }
grep -q '"req_id":"r' "$tmpdir/access.ndjson" \
    || { echo "access events carry no request ids" >&2; exit 1; }
grep -q '"endpoint":"step"' "$tmpdir/access.ndjson" \
    || { echo "access log missed the step request" >&2; exit 1; }
echo "access log OK"

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "trafficd exited nonzero after SIGTERM" >&2; exit 1; }
grep -q draining "$tmpdir/err"
echo "smoke test OK"

echo "== qsim -progress smoke"
# Telemetry smoke: a short estimation run must stream NDJSON convergence
# snapshots on stderr and write a run manifest carrying its stage spans.
go run ./cmd/tracegen -intra -frames 8192 -o "$tmpdir/smoke.bin"
go run ./cmd/qsim -i "$tmpdir/smoke.bin" -util 0.6 -buffer 30 -reps 200 \
    -progress -manifest "$tmpdir/run.json" >"$tmpdir/qsim.out" 2>"$tmpdir/qsim.err"
grep -q '"type":"convergence"' "$tmpdir/qsim.err" \
    || { echo "qsim -progress emitted no convergence snapshots" >&2; cat "$tmpdir/qsim.err" >&2; exit 1; }
grep -q '"reps_per_sec"' "$tmpdir/qsim.err" \
    || { echo "convergence snapshots missing reps_per_sec" >&2; exit 1; }
grep -q '"stages"' "$tmpdir/run.json" \
    || { echo "run manifest missing stage spans" >&2; cat "$tmpdir/run.json" >&2; exit 1; }
echo "progress smoke OK"

echo "CI OK"
