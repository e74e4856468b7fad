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
#   BENCH_fleet.json  the DEP+BURST fleet round loop at --jobs 1, best
#                     of 3 with min/max: 640 x 200, 6,400 x 200 and
#                     25,600 x 50 machine-rounds with chaos off, and the
#                     thermal/hierarchy layer armed at 640 x 200.
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

# --- fleet round loop --------------------------------------------------
# DEP+BURST fleets on one worker, each row best of 3 with its min/max
# spread. Rows sweep size (640 → 25,600 machines) so the round loop's
# scaling shows; the armed row adds the thermal/power-integrity layer
# (RC model, throttle ladder, breaker, 4-region hierarchy, legacy chaos
# 0.5 + brownout 0.3 + region-crash 0.2 + sensor-stuck 0.2). Every run
# starts in a fresh temp directory, so results/fleet.json is untouched;
# characterization at scale 0.02 is part of each run's wall time.
FLEET_SHARDS=4
FLEET_SCALE=0.02
FLEET_TMP=$(mktemp -d)
trap 'rm -rf "$FLEET_TMP"' EXIT
DEPBURST="$PWD/target/release/depburst"
ARMED="--chaos 0.5 --chaos-seed 7 --regions 4 --hierarchy on --thermal on \
    --brownout 0.3 --region-crash 0.2 --sensor-stuck 0.2"

# fleet_row NAME MACHINES ROUNDS [EXTRA FLAGS]: prints one JSON row.
fleet_row() {
    local name="$1" machines="$2" rounds="$3" extra="${4:-}"
    local min="" max="" t0 t1 secs dir
    for i in 1 2 3; do
        dir="$FLEET_TMP/$name-$i"
        mkdir -p "$dir"
        t0=$(now)
        # shellcheck disable=SC2086
        (cd "$dir" && "$DEPBURST" fleet "$machines" "$rounds" "$FLEET_SCALE" 1 \
            --shards "$FLEET_SHARDS" --policy depburst --jobs 1 $extra > /dev/null 2>&1) \
            || fail "fleet row $name exited nonzero"
        t1=$(now)
        secs=$(elapsed "$t0" "$t1")
        if [ -z "$min" ] || awk -v a="$secs" -v b="$min" 'BEGIN { exit !(a < b) }'; then
            min="$secs"
        fi
        if [ -z "$max" ] || awk -v a="$secs" -v b="$max" 'BEGIN { exit !(a > b) }'; then
            max="$secs"
        fi
    done
    awk -v n="$name" -v m="$machines" -v r="$rounds" -v lo="$min" -v hi="$max" \
        -v armed="$([ -n "$extra" ] && echo true || echo false)" 'BEGIN {
        printf "    {\"name\": \"%s\", \"machines\": %d, \"rounds\": %d, ", n, m, r
        printf "\"armed\": %s, \"min_wall_seconds\": %.3f, ", armed, lo
        printf "\"max_wall_seconds\": %.3f, ", hi
        printf "\"machine_rounds_per_second\": %.0f}", m * r / lo
    }'
}

# One assignment per row, so a failing row aborts the script (set -e).
row_small=$(fleet_row flat-640x200 640 200)
row_mid=$(fleet_row flat-6400x200 6400 200)
row_large=$(fleet_row flat-25600x50 25600 50)
row_armed=$(fleet_row armed-640x200 640 200 "$ARMED")

{
    printf '{\n'
    printf '  "benchmark": "fleet",\n'
    printf '  "policy": "depburst",\n'
    printf '  "shards": %d,\n' "$FLEET_SHARDS"
    printf '  "scale": %s,\n' "$FLEET_SCALE"
    printf '  "jobs": 1,\n'
    printf '  "repeats": 3,\n'
    printf '  "armed_flags": "%s",\n' "$(echo $ARMED)"
    printf '  "rows": [\n%s,\n%s,\n%s,\n%s\n  ]\n' \
        "$row_small" "$row_mid" "$row_large" "$row_armed"
    printf '}\n'
} > BENCH_fleet.json

cat BENCH_fleet.json
