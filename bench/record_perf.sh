#!/usr/bin/env bash
# Refresh BENCH_perf.json at the repo root from the perf_micro events/sec +
# trials/sec suite, so successive PRs leave a machine-readable perf
# trajectory. The "history" block of an existing BENCH_perf.json (e.g. the
# recorded pre-optimization baseline) is carried over, never overwritten.
#
# Honesty guard: refuses to record from a non-optimized build (empty or
# Debug CMAKE_BUILD_TYPE) — such numbers are meaningless for the trajectory
# and have polluted it before. Set FLOWPULSE_ALLOW_DEBUG_PERF=1 to override;
# the recording is then loudly tagged as untrusted. Every recording embeds
# the git SHA and build type it was measured from.
#
# Usage: bench/record_perf.sh [build-dir]      (default: <repo>/build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
OUT="$ROOT/BENCH_perf.json"

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD/CMakeCache.txt" 2>/dev/null || true)"
case "${BUILD_TYPE:-}" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *)
    echo "record_perf.sh: build dir '$BUILD' has CMAKE_BUILD_TYPE='${BUILD_TYPE:-}' —" >&2
    echo "  perf numbers from a non-optimized build are not comparable and will" >&2
    echo "  NOT be recorded. Configure a release build first, e.g.:" >&2
    echo "    cmake -S \"$ROOT\" -B \"$ROOT/build-release\" -DCMAKE_BUILD_TYPE=Release" >&2
    echo "    bench/record_perf.sh \"$ROOT/build-release\"" >&2
    if [ "${FLOWPULSE_ALLOW_DEBUG_PERF:-0}" = "1" ]; then
      echo "  FLOWPULSE_ALLOW_DEBUG_PERF=1 set: recording anyway, tagged untrusted." >&2
    else
      exit 1
    fi
    ;;
esac

GIT_SHA="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
GIT_DIRTY=0
git -C "$ROOT" diff --quiet HEAD 2>/dev/null || GIT_DIRTY=1

cmake --build "$BUILD" --target perf_micro -j >/dev/null

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
"$BUILD/bench/perf_micro" \
  --benchmark_filter='BM_EventQueueScheduleRun|BM_EventQueueHopPattern|BM_RingIterationSimulation|BM_LanedEvents|BM_TrialSweep|BM_FidelityModeIterations|BM_DaemonIngestCounters' \
  --benchmark_out="$TMP" --benchmark_out_format=json \
  --benchmark_min_time=0.5

if command -v python3 >/dev/null 2>&1; then
  FP_BUILD_TYPE="${BUILD_TYPE:-}" FP_GIT_SHA="$GIT_SHA" FP_GIT_DIRTY="$GIT_DIRTY" \
  python3 - "$TMP" "$OUT" <<'PY'
import json, os, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

build_type = os.environ.get("FP_BUILD_TYPE", "")
trusted = build_type in ("Release", "RelWithDebInfo", "MinSizeRel")
doc = {
    "note": ("Machine-readable perf trajectory; refresh with bench/record_perf.sh. "
             "'history' keeps earlier recordings (e.g. the pre-optimization seed "
             "baseline) for before/after comparison."),
    "suite": ("perf_micro: events/sec (hot path) + trials/sec (parallel trial "
              "engine) + iterations/sec per fidelity mode (hybrid engine) + "
              "counter-ingest/sec (flowpulsed engine, sockets excluded)"),
    "build_type": build_type,
    "trusted": trusted,
    "git_sha": os.environ.get("FP_GIT_SHA", "unknown"),
    "git_dirty": os.environ.get("FP_GIT_DIRTY", "0") == "1",
    "context": raw.get("context", {}),
    "benchmarks": raw.get("benchmarks", []),
    "history": {},
}
if not trusted:
    doc["note"] = ("UNTRUSTED RECORDING (non-optimized build, "
                   "FLOWPULSE_ALLOW_DEBUG_PERF override). " + doc["note"])
if os.path.exists(out_path):
    try:
        with open(out_path) as f:
            doc["history"] = json.load(f).get("history", {})
    except (OSError, ValueError):
        pass
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PY
else
  # No python3: keep the raw google-benchmark JSON (still machine-readable,
  # but the history block is not carried over).
  cp "$TMP" "$OUT"
fi

echo "wrote $OUT (build_type=${BUILD_TYPE:-unset}, sha=${GIT_SHA:0:12}, dirty=$GIT_DIRTY)"
