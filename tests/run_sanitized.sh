#!/usr/bin/env sh
# Correctness-matrix driver: build and run the full test suite in a side
# build directory under one verification mode.
#
#   $ tests/run_sanitized.sh [mode] [extra ctest args...]
#
# Modes:
#   asan   (default) AddressSanitizer + UBSan + range-checked libstdc++
#          containers (_GLIBCXX_ASSERTIONS) in build-asan/. Any leak,
#          overflow, out-of-range index, or UB aborts the run.
#   tsan   ThreadSanitizer in build-tsan/. After the full suite, reruns the
#          parallel trial-engine tests with FLOWPULSE_JOBS=8 so the
#          worker-pool merge paths race-check under real contention, then
#          the event-lane tests with FLOWPULSE_LANES=8 + FLOWPULSE_JOBS=8
#          so the cross-lane mailbox handoff and the LaneRunner round
#          barrier race-check with every lane on its own thread.
#   audit  FLOWPULSE_AUDIT=ON in build-audit/: the runtime invariant
#          auditor (byte conservation, event monotonicity, PFC liveness,
#          exactly-once delivery, monitor reconciliation) checks every
#          test's simulation from the inside; a failure in a traced run
#          dumps the flight recorder's event window.
#
# Every mode compiles the flight-recorder call sites, as every build does,
# so the trace tests run under each of them.
#
# A first argument that is not a known mode is passed to ctest (back-compat
# with the old `tests/run_sanitized.sh -R <regex>` usage, which ran asan).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

mode="asan"
case "${1-}" in
  asan|tsan|audit) mode="$1"; shift ;;
esac

case "${mode}" in
  asan)
    build_dir="${repo_root}/build-asan"
    cmake_flags="-DFLOWPULSE_SANITIZE=ON"
    ;;
  tsan)
    build_dir="${repo_root}/build-tsan"
    cmake_flags="-DFLOWPULSE_SANITIZE=thread"
    ;;
  audit)
    build_dir="${repo_root}/build-audit"
    cmake_flags="-DFLOWPULSE_AUDIT=ON"
    ;;
esac

# Fail loudly and immediately: a report that does not stop the run is a
# report nobody reads.
ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
export ASAN_OPTIONS UBSAN_OPTIONS TSAN_OPTIONS

cmake -B "${build_dir}" -S "${repo_root}" ${cmake_flags}
cmake --build "${build_dir}" -j"$(nproc)"
cd "${build_dir}"
ctest --output-on-failure -j "$@"

if [ "${mode}" = "tsan" ]; then
  # The trial engine only spawns real worker threads when jobs > 1; force a
  # wide pool so TSan sees the cross-thread result handoff.
  echo "== tsan: parallel trial engine at FLOWPULSE_JOBS=8 =="
  FLOWPULSE_JOBS=8 ctest --output-on-failure \
    -R 'RunTrialsParallel|ParallelIndexed' "$@"
  # LaneRunner defaults to one worker thread per lane, so these tests
  # race-check the mailbox handoff and round barrier under full
  # contention; FLOWPULSE_LANES=8 additionally lanes any scenario that
  # consults the environment (lanes = -1).
  echo "== tsan: event lanes at FLOWPULSE_LANES=8 =="
  FLOWPULSE_LANES=8 ctest --output-on-failure \
    -R 'LanedScenario|LaneRunner|ClosScenario1k' "$@"
fi
