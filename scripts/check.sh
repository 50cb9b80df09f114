#!/usr/bin/env bash
# Tier-1 gate: full build + ctest, then the chaos differential/recovery
# suite on its own (the robustness gate), then the observability stage
# (obs unit tests + a disabled-instrumentation overhead gate), then an
# ASan/UBSan pass over the concurrency-heavy and fault-handling tests
# (thread pool, streaming engine, chaos suite, crash-safe storage, obs)
# and a TSan pass over the lock-free metrics/tracer hammering tests, where
# memory and ordering bugs actually live. Run from the repo root:
#
#   scripts/check.sh                 # everything
#   SKIP_SAN=1 scripts/check.sh      # skip ASan/UBSan + TSan stages
#   SKIP_CHAOS=1 scripts/check.sh    # skip the standalone chaos stage
#   SKIP_OBS=1 scripts/check.sh      # skip the observability stage
#   SKIP_PERF=1 scripts/check.sh     # skip the throughput-regression stage
#   SKIP_OVERLOAD=1 scripts/check.sh # skip the standalone overload stage
#   SKIP_SHARD=1 scripts/check.sh    # skip the standalone shard stage
#   SKIP_SOCKET=1 scripts/check.sh   # skip the standalone socket stage
#   SKIP_OBSFLEET=1 scripts/check.sh # skip the fleet-observability stage
#   SKIP_SERVE=1 scripts/check.sh    # skip the query-serving stage
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# Runs a gtest binary under a --gtest_filter, failing when the filter
# selects no test. The installed gtest (1.12) has no
# --gtest_fail_if_no_test_selected, so a filter that matches nothing would
# otherwise run zero tests and pass.
#   run_filtered BINARY FILTER
run_filtered() {
  local bin="$1" filter="$2" listed
  listed="$("$bin" --gtest_list_tests --gtest_filter="$filter")"
  if ! grep -q '^  ' <<<"$listed"; then
    echo "FAIL: $bin --gtest_filter='$filter' selects no tests"
    exit 1
  fi
  "$bin" --gtest_filter="$filter"
}

echo "== tier-1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "$JOBS")

if [[ "${SKIP_CHAOS:-0}" == "1" ]]; then
  echo "== chaos suite skipped (SKIP_CHAOS=1) =="
else
  # Redundant with ctest above but isolated on purpose: a chaos failure
  # should be reported as "the pipeline breaks under fault X", not lost in
  # a thousand-test run. This is the stage CI gates robustness PRs on.
  echo "== chaos: fault-injection differential + recovery =="
  ./build/tests/chaos_test
fi

if [[ "${SKIP_OVERLOAD:-0}" == "1" ]]; then
  echo "== overload stage skipped (SKIP_OVERLOAD=1) =="
else
  # Same isolation rationale as the chaos stage: "the pipeline sheds the
  # wrong class under surge" or "the breaker never recovers" must fail
  # loudly by name. flow_test covers the queue/breaker/watchdog units;
  # overload_test drives the integrated pipeline through surge bursts,
  # flapping checkpoint sinks, and watchdog-led restores, and pins the
  # shed-free differential (flow path bit-identical to direct ingest
  # across 24 seeds). The surge tests assert their own RSS ceiling via
  # getrusage, so a queue that stops bounding memory fails here too.
  echo "== overload: flow-control units + surge/breaker/watchdog suite =="
  ./build/tests/flow_test
  ./build/tests/overload_test
fi

if [[ "${SKIP_SHARD:-0}" == "1" ]]; then
  echo "== shard stage skipped (SKIP_SHARD=1) =="
else
  # The sharded-equivalence gate: scatter/gather over N shard workers must
  # be BIT-identical to the single-node engines (24 seeds x N in {1,2,4,7},
  # including a mid-day rebalance and an injected shard failure), the
  # partial-merge algebra the gather relies on must hold, and the
  # coordinator's degraded/recovery semantics must match the documented
  # failure model. A wrong-numbers bug here is silent corruption at fleet
  # scale, so it fails loudly by name like the chaos stage.
  echo "== shard: partial-merge algebra + coordinator + equivalence =="
  ./build/tests/shard_test
fi

if [[ "${SKIP_SOCKET:-0}" == "1" ]]; then
  echo "== socket stage skipped (SKIP_SOCKET=1) =="
else
  # The socket-transport gate: wire framing + transport semantics + the
  # decoder fuzz corpus (shard_socket_test), then the equivalence suite
  # over real Unix sockets and real shard_worker child processes — every
  # run of the hostile-network arm tears frames, flips bits, resets
  # connections mid-frame, and kill -9s a worker mid-day, and the gather
  # must STILL be bit-identical to single-node. A failure here means the
  # session layer (reconnect, outbox replay, worker dedup) can corrupt
  # numbers under network faults, so it fails loudly by name.
  echo "== socket: framing/transport units + decoder fuzz corpus =="
  ./build/tests/shard_socket_test

  echo "== socket: equivalence over sockets + processes + network chaos =="
  ./build/tests/shard_socket_equivalence_test
fi

if [[ "${SKIP_OBSFLEET:-0}" == "1" ]]; then
  echo "== fleet-observability stage skipped (SKIP_OBSFLEET=1) =="
else
  # The fleet-observability gate: obs scatter/gather over real shard_worker
  # child processes. Fleet statusz counters must equal the sum of the
  # per-shard rows EXACTLY (bucket-exact histogram merge, no quantile
  # re-estimation), worker RPC spans must land in the merged Chrome trace
  # under the coordinator's trace ids, spans must drain exactly once across
  # pulls, and a worker kill -9'd mid-day must drop out of the fleet view
  # and rejoin after recovery. Wrong numbers here mean the fleet dashboard
  # lies, so it fails loudly by name.
  echo "== obsfleet: fleet statusz + merged trace over worker processes =="
  ./build/tests/fleet_obs_test
fi

if [[ "${SKIP_SERVE:-0}" == "1" ]]; then
  echo "== serve stage skipped (SKIP_SERVE=1) =="
else
  # The query-serving gate: serving-layer units (canonical key, ARC cache,
  # cube reuse, heatmap math, facade, concurrent readers) plus the differential
  # suite — cache/cube ON must be BIT-identical to cache/cube OFF over 24
  # adversarial seeds, across watermark advances, churn, and a mid-day
  # shard rebalance. A wrong-numbers bug here means the dashboard serves
  # stale or corrupt CDI, so it fails loudly by name. Then the closed-loop
  # bench: at the largest client arm, cached p99 must sit >= 10x below the
  # cold (cache/cube off, full recompute) p99 — the layer's whole reason
  # to exist.
  echo "== serve: serving-layer units + heatmaps + concurrent readers =="
  ./build/tests/serve_test

  echo "== serve: cache-on == cache-off differential (24 seeds) =="
  ./build/tests/serve_equivalence_test

  echo "== serve: closed-loop p99 separation (cached vs cold) =="
  ./build/bench/query_serving --benchmark_min_time=0.05 >/dev/null 2>&1
  python3 - <<'EOF_SERVE'
import json, sys
runs = {b["name"]: b for b in
        json.load(open("BENCH_query_serving.json"))["benchmarks"]}
def p99(prefix):
    arms = {n: b for n, b in runs.items() if n.startswith(prefix)}
    name = max(arms, key=lambda n: arms[n].get("clients", 0))
    return arms[name]["p99_us"], name
cached, cname = p99("BM_QueryServingCached")
cold, fname = p99("BM_QueryServingCold")
ratio = cold / cached if cached > 0 else float("inf")
print(f"   {cname}: p99 {cached:.3f}us; {fname}: p99 {cold:.3f}us "
      f"({ratio:.0f}x separation)")
if ratio < 10.0:
    print(f"FAIL: cached p99 only {ratio:.1f}x below cold p99 (need >= 10x)")
    sys.exit(1)
EOF_SERVE
  rm -f BENCH_query_serving.json
fi

if [[ "${SKIP_OBS:-0}" == "1" ]]; then
  echo "== observability stage skipped (SKIP_OBS=1) =="
else
  # The metrics/tracing layer claims "near-zero overhead when idle"; hold
  # it to that. BM_DisabledInjector runs the full validation pipeline with
  # chaos and tracing off — i.e. every instrumented call site taking its
  # disabled branch — and must stay within noise of BM_CopyPlusManifest,
  # the uninstrumented copy+bookkeeping baseline. Both loops allocate, so
  # one sample of each swings by tens of percent between runs; the gate
  # takes 9 interleaved repetitions of each and compares the per-benchmark
  # medians of CPU time. The 1.15 bound catches only real regressions like
  # a metric added to a per-event hot loop.
  echo "== obs: unit tests =="
  ./build/tests/obs_test

  echo "== obs: disabled-instrumentation overhead gate =="
  ./build/bench/chaos_overhead \
      --benchmark_filter='BM_CopyPlusManifest|BM_DisabledInjector' \
      --benchmark_min_time=0.2 --benchmark_repetitions=9 \
      --benchmark_enable_random_interleaving=true >/dev/null 2>&1
  RATIO="$(python3 - <<'EOF'
import json, statistics
runs = {}
for b in json.load(open("BENCH_chaos_overhead.json"))["benchmarks"]:
    runs.setdefault(b["name"], []).append(b["cpu_ns_per_iter"])
def median(prefix):
    samples = next(v for k, v in runs.items() if k.startswith(prefix))
    assert len(samples) >= 9, f"{prefix}: {len(samples)} repetitions"
    return statistics.median(samples)
print(f"{median('BM_DisabledInjector') / median('BM_CopyPlusManifest'):.3f}")
EOF
)"
  echo "   disabled-instrumentation / baseline median cpu ratio: ${RATIO}"
  awk -v r="$RATIO" 'BEGIN { exit !(r <= 1.15) }' || {
    echo "FAIL: disabled observability overhead ratio ${RATIO} > 1.15"
    exit 1
  }
fi

if [[ "${SKIP_PERF:-0}" == "1" ]]; then
  echo "== perf stage skipped (SKIP_PERF=1) =="
else
  # Throughput-regression gate: both end-to-end benches against the
  # committed baseline (bench/baseline.json, refreshed whenever a PR
  # legitimately moves the numbers). Each benchmark's items_per_second
  # must stay >= 0.85x its baseline — loose enough for shared-runner
  # noise, tight enough that an accidental per-event allocation or a
  # quadratic sneaking into the daily job fails the build rather than
  # landing silently.
  echo "== perf: core + streaming throughput vs bench/baseline.json =="
  ./build/bench/impl_core_throughput --benchmark_min_time=0.2 >/dev/null 2>&1
  ./build/bench/stream_throughput --benchmark_min_time=0.2 >/dev/null 2>&1
  python3 - <<'EOF'
import json, sys
baseline = json.load(open("bench/baseline.json"))
current = {}
for f in ["BENCH_impl_core_throughput.json", "BENCH_stream_throughput.json"]:
    for b in json.load(open(f))["benchmarks"]:
        if "items_per_second" in b:
            current[b["name"]] = b["items_per_second"]
failed = False
for name, base in sorted(baseline.items()):
    now = current.get(name)
    if now is None:
        print(f"FAIL: benchmark {name} is in the baseline but did not run")
        failed = True
        continue
    ratio = now / base
    flag = "" if ratio >= 0.85 else "  <-- FAIL (< 0.85x baseline)"
    print(f"   {name}: {now:,.0f} vs {base:,.0f} items/s ({ratio:.2f}x){flag}")
    failed |= ratio < 0.85
sys.exit(1 if failed else 0)
EOF
  rm -f BENCH_impl_core_throughput.json BENCH_stream_throughput.json
fi

if [[ "${SKIP_SAN:-0}" == "1" ]]; then
  echo "== sanitizers skipped (SKIP_SAN=1) =="
  exit 0
fi

echo "== asan+ubsan: build =="
cmake -B build-asan -S . -DCDIBOT_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$JOBS" \
  --target common_test cdi_test stream_test chaos_test storage_test \
           obs_test flow_test overload_test shard_test shard_socket_test \
           shard_socket_equivalence_test fleet_obs_test serve_test \
           serve_equivalence_test alloc_regression_test sim_test \
           quickstart architecture_comparison incident_drilldown \
           streaming_watchdog fig8_architecture_comparison fig3_event_period \
           table4_worked_example

echo "== asan+ubsan: thread pool + retry + Placement + CDI core + streaming engine =="
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=1"
run_filtered ./build-asan/tests/common_test 'ThreadPool*:Retry*:PlacementValue*'
./build-asan/tests/cdi_test
# Result rows share one Placement per VM; the row-copy and per-VM
# allocation budgets must hold, and any refcount misuse is an ASan failure.
./build-asan/tests/alloc_regression_test
./build-asan/tests/stream_test

echo "== asan+ubsan: chaos + crash-safe storage + observability =="
./build-asan/tests/chaos_test
./build-asan/tests/storage_test
./build-asan/tests/obs_test

echo "== asan+ubsan: example and figure programs =="
# Each loops over a drill-down result; a range-for over a member of a
# StatusOr temporary is a stack-use-after-scope that only ASan reports.
# streaming_watchdog round-trips a checkpoint file mid-day. quickstart,
# fig3 (Example 2) and table4 (Table IV) run the per-VM CDI path on the
# paper's worked examples.
./build-asan/examples/quickstart >/dev/null
./build-asan/examples/architecture_comparison >/dev/null
./build-asan/examples/incident_drilldown >/dev/null
./build-asan/examples/streaming_watchdog >/dev/null
./build-asan/bench/fig8_architecture_comparison >/dev/null
./build-asan/bench/fig3_event_period >/dev/null
./build-asan/bench/table4_worked_example >/dev/null

echo "== asan+ubsan: flow control + surge preset (in-test RSS ceiling) =="
./build-asan/tests/flow_test
run_filtered ./build-asan/tests/overload_test '*SurgeOverload*:*Flapping*'

echo "== asan+ubsan: shard coordinator + wire codecs + failure/recovery =="
run_filtered ./build-asan/tests/shard_test '-Seeds/*'
run_filtered ./build-asan/tests/shard_test \
    'Seeds/ShardEquivalenceTest.FailureAndRecoveryPreserveBitIdentity/*'

echo "== asan+ubsan: socket framing/transport units + decoder fuzz corpus =="
# The fuzz corpus (every truncation + single-byte corruption of every frame
# kind) gets its memory-safety teeth from this stage: any decoder overread
# is an ASan failure, any signed overflow a UBSan one. The equivalence arm
# runs one representative hostile-network seed per shard count — the full
# sweep runs unsanitized in the socket stage above.
./build-asan/tests/shard_socket_test
run_filtered ./build-asan/tests/shard_socket_equivalence_test \
    'Seeds/SocketShardEquivalenceTest.ProcessWorkersKill9UnderHostileNetwork/7'

echo "== asan+ubsan: serving layer + one differential seed =="
# The ARC cache moves shared_ptr payloads between resident and ghost
# lists and the cube rebinds snapshot storage on every refresh; any
# use-after-demote or overread in the row fold is an ASan failure here.
# One engine-arm differential seed rides along; the full 24-seed sweep
# runs unsanitized in the serve stage above.
./build-asan/tests/serve_test
run_filtered ./build-asan/tests/serve_equivalence_test \
    'Seeds/ServeEquivalenceTest.EngineCacheOnMatchesCacheOff/7'

echo "== asan+ubsan: closed-loop day through the read facade =="
# Every loop read goes through a facade over a borrowed streaming engine
# that the supervisor resets and re-emplaces across crash/restore, and over
# a coordinator whose workers may be child processes; a dangling borrow or
# an overread in any arm is an ASan failure here.
run_filtered ./build-asan/tests/sim_test 'CloudBotLoopTest.*'

echo "== asan+ubsan: fleet obs scatter/gather over worker processes =="
# The obs-snapshot codec moves raw histogram buckets and drained spans
# across the wire; any overread in the decode or the bucket merge is an
# ASan failure here. Includes the kill-9 rejoin scenario.
./build-asan/tests/fleet_obs_test

if [[ "${SKIP_OBS:-0}" == "1" ]]; then
  echo "== tsan skipped (SKIP_OBS=1) =="
else
  # The whole point of the sharded counters / per-thread span buffers is
  # safe unsynchronized use; the obs_test hammering tests are written to
  # race if the implementation does. TSan is the referee.
  echo "== tsan: build =="
  cmake -B build-tsan -S . -DCDIBOT_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target obs_test flow_test shard_test shard_socket_test fleet_obs_test \
             serve_test stream_test common_test cdi_test overload_test \
             integration_test

  echo "== tsan: concurrent metrics + tracer hammering =="
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/obs_test \
      '*Concurrent*:*Hammer*:ObsTracer*'

  # The pooled daily job: pool threads claim chunks of VMs, each chunk
  # writes its own partial result, and the caller merges the partials once
  # ParallelFor returns. The pool's own claim/completion handshake, the
  # pooled-vs-serial differential, a deadline expiring mid-run, and four
  # jobs sharing one pool and one event log are all written to race if the
  # hand-off does.
  echo "== tsan: thread pool + pooled daily job =="
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/common_test \
      'ThreadPool*'
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/cdi_test \
      'PipelineTest.*Parallel*'
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/overload_test \
      'OverloadTest.*DailyJob*'
  TSAN_OPTIONS="halt_on_error=1" run_filtered \
      ./build-tsan/tests/integration_test 'ConcurrencyTest.*'

  # The backpressure queue is the one new lock-based hot path: producers,
  # consumers, and a watermark-flipping reader all contend on it. The
  # Concurrent suite is written to race if the implementation does.
  echo "== tsan: backpressure queue producer/consumer hammering =="
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/flow_test \
      '*Concurrent*'

  # Writers ingest, register and report sheds while a reader checkpoints,
  # snapshots and extracts a key range: the engine's per-shard locks, its
  # engine mutex and the state-transfer collector all meet here. The test
  # is written to race if the lock scopes do.
  echo "== tsan: streaming engine state transfer racing ingest =="
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/stream_test \
      '*Concurrent*'

  # Concurrent gathers race ingest, rebalance, shard failure and recovery:
  # the coordinator's shared/exclusive topology locking plus per-handle
  # channel serialization is exactly the kind of layered locking TSan
  # referees. The tests are written to race if the implementation does.
  echo "== tsan: shard coordinator gather/rebalance/failure racing =="
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/shard_test \
      '*Concurrent*'

  # Concurrent CdiQueryService readers race each other and a writer that
  # ingests and advances the engine's watermark: the ARC cache's single
  # mutex, the service lock around cube refresh and source pulls, and the
  # engine's own locking all meet here. The test is written to race if the
  # layering does.
  echo "== tsan: query service readers racing ingest =="
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/serve_test \
      '*Concurrent*'

  # Close-while-blocked-in-Recv under concurrent Send/Close, for both the
  # in-process channel and the socket transport: the drain-then-Unavailable
  # contract involves a closer thread racing a blocked receiver, which is
  # precisely the ordering TSan referees.
  echo "== tsan: transport close-while-blocked-in-Recv racing =="
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/shard_socket_test \
      '*Concurrent*'

  # Obs pulls race gathers, shard failure, and recovery on a live fleet:
  # the pull walks the same per-handle channels the gather serializes on
  # while the registry and tracer keep mutating underneath. The test is
  # written to race if the snapshot path does.
  echo "== tsan: fleet obs pulls racing gathers + failure/recovery =="
  TSAN_OPTIONS="halt_on_error=1" run_filtered ./build-tsan/tests/fleet_obs_test \
      '*Concurrent*'
fi

echo "== all checks passed =="
