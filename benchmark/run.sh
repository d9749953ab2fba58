#!/usr/bin/env bash
# Build the benchmark, prove its checkers can fail, run the four
# workloads (one process each, tracing off), then one traced run per
# workload (spans + the per-layer pass), and write every result line to
# one JSON file stamped with the host's core count, compiler, commit and
# seed.
#
#   benchmark/run.sh [--quick] [--seed N] [--seconds S] [--results FILE]
#
# --quick   tiny operation counts, one round each: checks only, under
#           30 s after the build. Meant for a CI job.
# --results where the JSON goes (default benchmark/out/results.json;
#           the committed first baseline is benchmark/baseline.json).
#
# Run from anywhere: it moves to the repository root first, so that the
# root `.cargo/config.toml` (target-cpu=native) applies to the build, as
# it does to the code users run.
set -euo pipefail

cd "$(dirname "$0")/.."

seed=1
seconds=20
quick=
results=benchmark/out/results.json
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) quick=--quick ;;
        --seed) seed=$2; shift ;;
        --seconds) seconds=$2; shift ;;
        --results) results=$2; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

# Reuse the repository's target directory unless told otherwise.
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-target}
logs=benchmark/out/logs
mkdir -p "$logs" "$(dirname "$results")"

started=$(date +%s)
cargo build --release --offline --manifest-path benchmark/Cargo.toml
build_s=$(($(date +%s) - started))
echo "build_s $build_s (informational: not a metric)"
bin=$CARGO_TARGET_DIR/release/amem-benchmark

"$bin" --sabotage-check

status=0
for trace in 0 1; do
    for workload in cold_sweep curve_calibrate served_warm served_cold; do
        echo "== $workload --trace $trace"
        log=$logs/$workload-trace$trace.txt
        # shellcheck disable=SC2086  # $quick is one flag or nothing
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" $quick >"$log" || status=1
        grep -v '^{' "$log" | grep -v '^detail ' || true
    done
done

python3 - "$logs" "$results" <<EOF
import json, sys
logs, results = sys.argv[1:]
runs = []
for trace in (0, 1):
    for workload in ("cold_sweep", "curve_calibrate", "served_warm", "served_cold"):
        lines = open(f"{logs}/{workload}-trace{trace}.txt").read().splitlines()
        detail = [l[len("detail "):] for l in lines if l.startswith("detail ")]
        runs.append({
            "workload": workload,
            "trace": trace,
            "result": json.loads(lines[-1]),
            "detail": json.loads(detail[-1]) if detail else None,
        })
json.dump({
    "nproc": $(nproc),
    "rustc": "$(rustc -V)",
    "git_sha": "$(git rev-parse HEAD 2>/dev/null || echo unknown)",
    "seed": $seed,
    "seconds": $seconds,
    "quick": "$quick" != "",
    "build_s": $build_s,
    "runs": runs,
}, open(results, "w"), indent=1)
print("wrote", results)
EOF
exit $status
