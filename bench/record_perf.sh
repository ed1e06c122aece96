#!/usr/bin/env bash
# Refresh BENCH_perf.json at the repo root from the perf_micro events/sec +
# trials/sec suite, so successive PRs leave a machine-readable perf
# trajectory. The "history" block of an existing BENCH_perf.json (e.g. the
# recorded pre-optimization baseline) is carried over, never overwritten.
#
# Each benchmark runs 10 times, repetitions of different benchmarks
# randomly interleaved, and is recorded as its repetition count
# plus the median and quartiles of its real time and of its rate counter:
# on a shared host one run can land in a slow or a fast phase, so a single
# run per benchmark is not a measurement.
#
# Where taskset exists, the suite runs pinned to one CPU, the last one this
# shell may use, and the recording names it ("pinned_cpu"). On a shared
# 4-vCPU host, BM_DaemonIngestCounters' quartiles spread over 2478–4325 ns
# unpinned and 2066–2228 ns pinned. On one CPU the multi-threaded rows
# (BM_LanedEvents/2 and /4, BM_TrialSweepParallel) price their threads'
# overhead rather than a parallel speed-up.
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

cmake --build "$BUILD" --target perf_micro -j"$(nproc)" >/dev/null

PIN_CPU=""
RUN=()
if command -v taskset >/dev/null 2>&1; then
  # "pid N's current affinity list: 0-3,6" -> 6
  PIN_CPU="$(taskset -cp $$ | sed 's/.*: //' | tr ',' '\n' | tail -n 1 | sed 's/.*-//')"
  RUN=(taskset -c "$PIN_CPU")
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
${RUN[@]+"${RUN[@]}"} "$BUILD/bench/perf_micro" \
  --benchmark_filter='BM_EventQueueScheduleRun|BM_EventQueueHopPattern|BM_RingIterationSimulation|BM_ClosScenarioBuild|BM_LanedEvents|BM_TrialSweep|BM_FidelityModeIterations|BM_StreamingDetectorObserve|BM_DaemonIngestCounters' \
  --benchmark_out="$TMP" --benchmark_out_format=json \
  --benchmark_min_time=0.5 \
  --benchmark_repetitions=10 --benchmark_enable_random_interleaving=true

if command -v python3 >/dev/null 2>&1; then
  FP_BUILD_TYPE="${BUILD_TYPE:-}" FP_GIT_SHA="$GIT_SHA" FP_GIT_DIRTY="$GIT_DIRTY" \
  FP_PIN_CPU="$PIN_CPU" \
  python3 - "$TMP" "$OUT" <<'PY'
import json, os, statistics, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)


def spread(values):
    """Median and quartiles (linear interpolation) of one benchmark's runs."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


# One summary per benchmark, from its repetitions (aggregate rows skipped).
runs = {}
for row in raw.get("benchmarks", []):
    if row.get("run_type") == "iteration":
        runs.setdefault(row["run_name"], []).append(row)
benchmarks = []
for name, rows in sorted(runs.items(), key=lambda kv: (
        kv[1][0]["family_index"], kv[1][0]["per_family_instance_index"])):
    rates = [k for k in rows[0] if k.endswith("_per_second") or k.endswith("/s")]
    rate = next((k for k in rates if k != "items_per_second"),
                rates[0] if rates else None)
    summary = {"name": name, "repetitions": len(rows),
               "time_unit": rows[0]["time_unit"],
               "real_time": spread([r["real_time"] for r in rows])}
    if "label" in rows[0]:
        summary["label"] = rows[0]["label"]
    if rate is not None:
        summary["rate"] = rate
        summary[rate] = spread([r[rate] for r in rows])
    benchmarks.append(summary)

build_type = os.environ.get("FP_BUILD_TYPE", "")
trusted = build_type in ("Release", "RelWithDebInfo", "MinSizeRel")
doc = {
    "note": ("Machine-readable perf trajectory; refresh with bench/record_perf.sh. "
             "Each benchmark holds its repetition count and the median and "
             "quartiles (q1, q3) of real_time and of its rate counter over the "
             "randomly interleaved repetitions. 'history' keeps earlier "
             "recordings (e.g. the pre-optimization seed baseline) for "
             "before/after comparison."),
    "suite": ("perf_micro: events/sec (hot path) + builds/sec of the 1024-host "
              "Clos scenario (set-up and teardown, no events) + trials/sec "
              "(parallel trial engine) + iterations/sec per fidelity mode "
              "(hybrid engine) + one row's z-rule judgement + "
              "counter-ingest/sec (flowpulsed engine, sockets excluded)"),
    "build_type": build_type,
    "trusted": trusted,
    "git_sha": os.environ.get("FP_GIT_SHA", "unknown"),
    "git_dirty": os.environ.get("FP_GIT_DIRTY", "0") == "1",
    # The CPU the suite ran pinned to; null when taskset was missing.
    "pinned_cpu": int(os.environ["FP_PIN_CPU"]) if os.environ.get("FP_PIN_CPU") else None,
    "context": raw.get("context", {}),
    "benchmarks": benchmarks,
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

echo "wrote $OUT (build_type=${BUILD_TYPE:-unset}, sha=${GIT_SHA:0:12}, dirty=$GIT_DIRTY, pinned_cpu=${PIN_CPU:-none})"
