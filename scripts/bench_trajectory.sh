#!/bin/sh
# bench_trajectory.sh — run the trajectory benchmarks and record ns/op (plus
# the derived speedups) at the repo root:
#
#   BENCH_incremental.json  full-vs-incremental EditTree sweeps
#   BENCH_timing.json       sequential vs work-stealing chip slack and
#                           arena propagation kernel, telemetry overheads,
#                           full-reanalyze vs dirty-cone ECO re-timing,
#                           sequential vs concurrent closure-trial evaluation,
#                           and the corner sweep's in-place arena rescale vs
#                           per-sample netlist rebuild
#   BENCH_serve.json        rcserve under rcload: per-operation p50/p99 at
#                           two concurrency levels plus kill -9 recovery
#                           timing (via scripts/serve_smoke.sh)
#
# The timing suite runs twice — once pinned to GOMAXPROCS=1 and once on all
# cores (the second run is skipped on a single-core machine) — and every
# benchmark entry records the gomaxprocs it ran under, so a multicore speedup
# claim can never hide a single-core measurement.
#
# These files are the performance trajectory: re-run after perf work and
# commit the result so regressions show up in review.
#
# Usage: scripts/bench_trajectory.sh [benchtime] [timing_benchtime]
#        (defaults 200x and 30x — the chip benchmark analyzes a 240-net
#        design per iteration, so it runs fewer of them)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-200x}"
timing_benchtime="${2:-30x}"

# Shared awk prologue: collect "BenchmarkName iters ns/op" lines into ns[],
# then emit the JSON header and benchmark table. Each caller appends its own
# speedup section (which must open with a comma after the benchmarks block).
collect='
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip the GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    ns[name] = $3
    order[n++] = name
}
function header() {
    if (n == 0) { print "bench_trajectory: no benchmark output" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"gomaxprocs\": %s,\n", maxprocs
    printf "  \"unit\": \"ns/op\",\n"
    printf "  \"benchmarks\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": %s%s\n", order[i], ns[order[i]], (i < n-1 ? "," : "")
    }
    printf "  }"
}
'
date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
goversion="$(go version | cut -d' ' -f3)"
maxprocs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"

raw="$(go test -run '^$' -bench 'BenchmarkIncremental' -benchtime "$benchtime" -count 1 ./internal/incr/)"
echo "$raw"
printf '%s\n' "$raw" | awk -v date="$date" -v goversion="$goversion" -v maxprocs="$maxprocs" "$collect"'
END {
    header()
    printf ",\n  \"speedup\": {\n"
    printf "    \"sweep\": %.1f,\n", ns["IncrementalSweep/full"] / ns["IncrementalSweep/incremental"]
    printf "    \"single_output\": %.1f\n", ns["IncrementalSingleOutput/full"] / ns["IncrementalSingleOutput/incremental"]
    printf "  }\n}\n"
}' > BENCH_incremental.json
echo "wrote BENCH_incremental.json:"
cat BENCH_incremental.json

# Timing suite: once pinned to one P, once on every core the machine has.
# Each run's output is prefixed with a GOMAXPROCS marker line so the awk
# below can tag every entry with the parallelism it was measured under.
run_timing() {
    echo "GOMAXPROCS $1"
    GOMAXPROCS="$1" go test -run '^$' \
        -bench 'BenchmarkDesignSlack|BenchmarkDesignECO|BenchmarkArenaPropagation|BenchmarkClosure|BenchmarkCornerSweep' \
        -benchtime "$timing_benchtime" -count 1 ./internal/timing/ ./internal/closure/ ./internal/mcd/
}
raw="$(run_timing 1)"
if [ "$maxprocs" -gt 1 ]; then
    raw="$raw
$(run_timing "$maxprocs")"
else
    echo "bench_trajectory: single-core machine, skipping the all-cores run" >&2
fi
echo "$raw"
printf '%s\n' "$raw" | awk -v date="$date" -v goversion="$goversion" -v maxprocs="$maxprocs" '
$1 == "GOMAXPROCS" { mp = $2; if (mp > maxmp) maxmp = mp; next }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip the GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    key = name "@" mp
    if (!(key in ns)) { order[n++] = key; bname[key] = name; bmp[key] = mp }
    ns[key] = $3
}
# speedup queues one ratio line if both measurements exist.
function speedup(label, num, den) {
    if ((num in ns) && (den in ns) && ns[den] > 0)
        sl[sn++] = sprintf("    \"%s\": %.2f", label, ns[num] / ns[den])
}
END {
    if (n == 0) { print "bench_trajectory: no benchmark output" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpus\": %s,\n", maxprocs
    printf "  \"unit\": \"ns/op\",\n"
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) {
        k = order[i]
        printf "    {\"name\": \"%s\", \"gomaxprocs\": %s, \"ns_per_op\": %s}%s\n", \
            bname[k], bmp[k], ns[k], (i < n-1 ? "," : "")
    }
    printf "  ],\n"
    speedup("worksteal_vs_sequential_singlecore", "DesignSlack/arena-sequential@1", "DesignSlack/arena-parallel@1")
    if (maxmp > 1) {
        speedup("worksteal_vs_sequential_multicore", \
            "DesignSlack/arena-sequential@" maxmp, "DesignSlack/arena-parallel@" maxmp)
        speedup("propagation_worksteal_vs_sequential_multicore", \
            "ArenaPropagation/sequential@" maxmp, "ArenaPropagation/worksteal@" maxmp)
    }
    speedup("eco_dirty_cone_vs_full", "DesignECO/full-reanalyze@1", "DesignECO/dirty-cone@1")
    speedup("corner_sweep_arena_vs_rebuild", "CornerSweep/rebuild@1", "CornerSweep/arena@1")
    speedup("closure_concurrent_vs_sequential", "Closure/sequential@" maxmp, "Closure/concurrent@" maxmp)
    # Ratio of instrumented to bare propagation: a registry-enabled pass per
    # the observability contract must stay within 2% of the no-op path
    # (metrics_overhead <= 1.02).
    speedup("metrics_overhead", "ArenaPropagationObs/metrics@1", "ArenaPropagationObs/disabled@1")
    # Same contract for the tracer, against the same disabled run: an
    # analysis wrapped in a live trace (one root span per request plus the
    # engine child spans) must stay within 5% of the untraced path
    # (trace_overhead <= 1.05).
    speedup("trace_overhead", "ArenaPropagationObs/trace@1", "ArenaPropagationObs/disabled@1")
    printf "  \"speedup\": {\n"
    for (i = 0; i < sn; i++) printf "%s%s\n", sl[i], (i < sn-1 ? "," : "")
    printf "  }\n}\n"
}' > BENCH_timing.json
echo "wrote BENCH_timing.json:"
cat BENCH_timing.json

# Serve suite: rcserve driven by rcload at two concurrency levels, then
# killed -9 and restarted to time WAL recovery. Writes BENCH_serve.json.
sh scripts/serve_smoke.sh
