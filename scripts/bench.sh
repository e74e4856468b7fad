#!/bin/bash
# Benchmarks the simulator core and the fleet simulation, writing the two
# committed snapshots at the repo root — the ROADMAP's benchmark
# trajectory. Re-run after performance-relevant PRs and check the new
# numbers in next to the old files' history:
#
#   BENCH_sim.json    single-machine simulator throughput (a full-scale
#                     lusearch point, best of 3: wall seconds and
#                     events/second) plus the full fig3 sweep wall time,
#                     exact and on the sampled tier (`--sampling on`).
#   BENCH_fleet.json  the fleet pipeline (64 machines, 4 shards, 200
#                     rounds, chaos 0.5, seed 1): wall seconds and
#                     machine-rounds/second, plus the same fleet with
#                     the thermal/power-integrity layer armed (RC model,
#                     throttle ladder, breaker, hierarchical governor,
#                     brownout chaos) and the measured overhead percent.
#
# Workloads are fixed so snapshots compare across commits; wall time
# excludes the build. Every benchmark process must exit 0 — a nonzero
# exit aborts the script loudly rather than silently committing a bogus
# snapshot.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() {
    echo "bench.sh: $*" >&2
    exit 1
}

now() { date +%s.%N; }

elapsed() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", b - a }'; }

cargo build --release -q -p harness || fail "release build failed"

# --- single-machine simulator throughput -------------------------------
# One full-scale memory-bound point; best-of-3 wall time rides out
# scheduler noise. The events/second metric divides the engine's
# dispatched-event count (printed by `depburst run`) by the best wall time.
SP_BENCH=lusearch
SP_GHZ=2
SP_SCALE=1
sp_best=""
sp_out=""
for _ in 1 2 3; do
    t0=$(now)
    sp_out=$(target/release/depburst run "$SP_BENCH" "$SP_GHZ" "$SP_SCALE") \
        || fail "depburst run $SP_BENCH exited nonzero"
    t1=$(now)
    secs=$(elapsed "$t0" "$t1")
    if [ -z "$sp_best" ] || awk -v a="$secs" -v b="$sp_best" 'BEGIN { exit !(a < b) }'; then
        sp_best="$secs"
    fi
done
sp_events=$(echo "$sp_out" | awk '/events/ { print $2 }')
[ -n "$sp_events" ] || fail "could not parse dispatched-event count from depburst run output"

# --- full fig3 sweep ---------------------------------------------------
# Both directions, full scale, one seed: 56 simulated points plus all six
# predictors, through the pool + memo-cache pipeline.
FIG3_SCALE=1
FIG3_JOBS=4
t0=$(now)
target/release/depburst fig3 both "$FIG3_SCALE" 1 --jobs "$FIG3_JOBS" > /dev/null \
    || fail "fig3 sweep exited nonzero"
t1=$(now)
fig3_secs=$(elapsed "$t0" "$t1")

# --- sampled fig3 sweep ------------------------------------------------
# The same full-scale sweep on the sampled tier (default SamplingConfig):
# every point simulates only its probe + measure prefixes and
# extrapolates the rest. This row is the committed evidence for the
# sampled tier's speed target (≤ 5 s vs the exact sweep above); its
# accuracy is gated separately by ci.sh over results/sampling_error.json.
t0=$(now)
target/release/depburst fig3 both "$FIG3_SCALE" 1 --jobs "$FIG3_JOBS" --sampling on > /dev/null \
    || fail "sampled fig3 sweep exited nonzero"
t1=$(now)
sampled_fig3_secs=$(elapsed "$t0" "$t1")

awk -v bench="$SP_BENCH" -v ghz="$SP_GHZ" -v sc="$SP_SCALE" \
    -v secs="$sp_best" -v ev="$sp_events" \
    -v f3sc="$FIG3_SCALE" -v f3j="$FIG3_JOBS" -v f3secs="$fig3_secs" \
    -v f3ssecs="$sampled_fig3_secs" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"simcore\",\n"
    printf "  \"single_point\": {\n"
    printf "    \"bench\": \"%s\",\n", bench
    printf "    \"ghz\": %s,\n", ghz
    printf "    \"scale\": %s,\n", sc
    printf "    \"wall_seconds\": %s,\n", secs
    printf "    \"events\": %d,\n", ev
    printf "    \"events_per_second\": %.0f\n", ev / secs
    printf "  },\n"
    printf "  \"fig3_sweep\": {\n"
    printf "    \"scale\": %s,\n", f3sc
    printf "    \"seeds\": 1,\n"
    printf "    \"jobs\": %d,\n", f3j
    printf "    \"wall_seconds\": %s\n", f3secs
    printf "  },\n"
    printf "  \"sampled_fig3_sweep\": {\n"
    printf "    \"scale\": %s,\n", f3sc
    printf "    \"seeds\": 1,\n"
    printf "    \"jobs\": %d,\n", f3j
    printf "    \"sampling\": \"default\",\n"
    printf "    \"wall_seconds\": %s\n", f3ssecs
    printf "  }\n"
    printf "}\n"
}' > BENCH_sim.json

cat BENCH_sim.json

# --- fleet pipeline ----------------------------------------------------
MACHINES=64
SHARDS=4
ROUNDS=200
SCALE=0.02
JOBS=4

t0=$(now)
target/release/depburst fleet "$MACHINES" "$ROUNDS" "$SCALE" 1 \
    --shards "$SHARDS" --chaos 0.5 --chaos-seed 7 --policy depburst \
    --jobs "$JOBS" > /dev/null \
    || fail "fleet benchmark exited nonzero"
t1=$(now)
fleet_secs=$(elapsed "$t0" "$t1")

# The same fleet with the thermal/power-integrity layer fully armed:
# per-machine RC thermal model + throttle ladder + overshoot breaker,
# hierarchical governance over 4 regions, and the brownout /
# aggregator-crash / stuck-sensor chaos classes on top of the legacy
# schedule. The characterization points are shared with the run above
# through the memo cache, so the delta is the round loop's thermal cost.
t0=$(now)
target/release/depburst fleet "$MACHINES" "$ROUNDS" "$SCALE" 1 \
    --shards "$SHARDS" --chaos 0.5 --chaos-seed 7 --policy depburst \
    --regions 4 --hierarchy on --thermal on \
    --brownout 0.3 --region-crash 0.2 --sensor-stuck 0.2 \
    --jobs "$JOBS" > /dev/null \
    || fail "thermal fleet benchmark exited nonzero"
t1=$(now)
thermal_secs=$(elapsed "$t0" "$t1")

awk -v secs="$fleet_secs" -v tsecs="$thermal_secs" -v m="$MACHINES" \
    -v r="$ROUNDS" -v sh="$SHARDS" -v j="$JOBS" -v sc="$SCALE" 'BEGIN {
    printf "{\n"
    printf "  \"benchmark\": \"fleet\",\n"
    printf "  \"machines\": %d,\n", m
    printf "  \"shards\": %d,\n", sh
    printf "  \"rounds\": %d,\n", r
    printf "  \"scale\": %s,\n", sc
    printf "  \"jobs\": %d,\n", j
    printf "  \"wall_seconds\": %.3f,\n", secs
    printf "  \"machine_rounds_per_second\": %.0f,\n", m * r / secs
    printf "  \"thermal\": {\n"
    printf "    \"regions\": 4,\n"
    printf "    \"hierarchy\": true,\n"
    printf "    \"chaos\": \"legacy 0.5 + brownout 0.3 + region-crash 0.2 + sensor-stuck 0.2\",\n"
    printf "    \"wall_seconds\": %.3f,\n", tsecs
    printf "    \"machine_rounds_per_second\": %.0f,\n", m * r / tsecs
    printf "    \"overhead_pct\": %.1f\n", (tsecs / secs - 1) * 100
    printf "  }\n"
    printf "}\n"
}' > BENCH_fleet.json

cat BENCH_fleet.json
