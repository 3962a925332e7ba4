#!/usr/bin/env bash
# Perf smoke gate: run bench_microkernel and fail if event throughput
# regresses more than 25% against the checked-in baseline
# (bench/baseline_microkernel.json).
#
#   scripts/perf_smoke.sh [build-dir]     # default: build
#
# Takes the best of IGNEM_PERF_RUNS runs (default 3) so a noisy scheduler
# tick does not fail the gate; a real regression shows up in every run.
# The event_churn_speedup floor is machine-independent (new kernel vs the
# in-tree reference, measured in the same process); the ops/s floors catch
# absolute regressions on comparable hardware.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
RUNS="${IGNEM_PERF_RUNS:-3}"
BENCH="$BUILD_DIR/bench/bench_microkernel"
BASELINE=bench/baseline_microkernel.json

if [[ ! -x "$BENCH" ]]; then
  echo "perf_smoke.sh: $BENCH not built" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for ((i = 1; i <= RUNS; ++i)); do
  (cd "$WORK" && "$OLDPWD/$BENCH" > "run$i.log")
  mv "$WORK/BENCH_microkernel.json" "$WORK/result$i.json"
done

# Keep one run's full report next to the build for CI artifact upload.
cp "$WORK/result1.json" "$BUILD_DIR/BENCH_microkernel.json"

python3 - "$BASELINE" "$WORK" "$RUNS" <<'EOF'
import json, sys

baseline_path, work, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
baseline = json.load(open(baseline_path))

GATED = ["event_churn_new_ops_per_sec", "dispatch_events_per_sec",
         "event_churn_speedup"]
TOLERANCE = 0.25

best = {}
for i in range(1, runs + 1):
    metrics = json.load(open(f"{work}/result{i}.json"))["metrics"]
    for key in GATED:
        best[key] = max(best.get(key, 0.0), metrics[key])

failed = False
for key in GATED:
    floor = baseline[key] * (1.0 - TOLERANCE)
    status = "OK" if best[key] >= floor else "REGRESSED"
    failed |= best[key] < floor
    print(f"  {key:34s} best {best[key]:14.1f}  floor {floor:14.1f}  {status}")

if failed:
    print("perf_smoke.sh: event throughput regressed >25% vs "
          f"{baseline_path}", file=sys.stderr)
    sys.exit(1)
print("perf_smoke.sh: throughput within 25% of baseline")
EOF
