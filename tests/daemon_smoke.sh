#!/usr/bin/env bash
# End-to-end smoke for the flowpulsed deployment path, as CI runs it:
#
#   1. simulate a recorded-fault scenario and dump its counter stream in
#      wire format (flowpulse_cli --dump-counters);
#   2. start flowpulsed on an ephemeral port, replay the stream through
#      flowpulse-bench, and assert the daemon reproduces the in-simulator
#      verdict (flagged iteration + localized link) before shutting the
#      daemon down cleanly over the protocol;
#   3. start TWO shard daemons, route the same stream with flowpulse-merge,
#      and assert the merged verdict names the same link.
#
# Usage: tests/daemon_smoke.sh [build-dir]      (default: <repo>/build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
WORK="$(mktemp -d)"
DAEMON_PIDS=()
cleanup() {
  for pid in "${DAEMON_PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

CLI="$BUILD/examples/flowpulse_cli"
DAEMON="$BUILD/src/daemon/flowpulsed"
BENCH="$BUILD/tools/flowpulse-bench"
MERGE="$BUILD/tools/flowpulse-merge"
for bin in "$CLI" "$DAEMON" "$BENCH" "$MERGE"; do
  [ -x "$bin" ] || { echo "daemon_smoke: missing binary $bin (build first)" >&2; exit 1; }
done

# The known fault: leaf 12, uplink 5, 5% drop, present from iteration 0.
FAULT_LEAF=12 FAULT_UPLINK=5
"$CLI" --leaves=32 --spines=16 --bytes=48000000 --iters=4 \
       --fault-leaf=$FAULT_LEAF --fault-spine=$FAULT_UPLINK --drop=0.05 \
       --detector=streaming --dump-counters="$WORK/fault.fpstream" >/dev/null
[ -s "$WORK/fault.fpstream" ] || { echo "daemon_smoke: empty counter dump" >&2; exit 1; }

wait_port_file() {  # path
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "daemon_smoke: daemon never wrote $1" >&2
  return 1
}

echo "== flag values that do not parse, fit, or make a runnable setup are refused (exit 2) =="
# --port=0 keeps a daemon that wrongly accepted the value off the default
# port; the timeout ends it.
for bad in --port=70000 --leaves=abc --leaves=-1 --leaves=0 --spines=0 \
           --hosts-per-leaf=0 --parallel=0 --max-connections=-1 --threshold=0 \
           --threshold=-1; do
  rc=0
  timeout 10 "$DAEMON" --port=0 "$bad" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "daemon_smoke: flowpulsed $bad exited $rc, want 2" >&2; exit 1; }
done
# A scenario flowpulse_cli cannot run is refused the same way. Each case is
# one or two flags after a small shape that keeps a wrongly accepted run
# short.
for bad in "--fault-leaf=9 --drop=0.1" "--fault-spine=5 --drop=0.1" --leaves=0 \
           "--leaves=1 --collective=alltoall" --collective=x --model=x --spray=x \
           --fidelity=x --detector=x --fault-kind=x --threshold=0 --threshold=-1 \
           --drop=2 --drop=-0.5 --iters=0 --jitter-us=-1; do
  rc=0
  # shellcheck disable=SC2086  # word-split $bad into its flags
  timeout 60 "$CLI" --leaves=4 --spines=2 --iters=1 --bytes=65536 $bad >/dev/null 2>&1 ||
    rc=$?
  [ "$rc" -eq 2 ] || { echo "daemon_smoke: flowpulse_cli $bad exited $rc, want 2" >&2; exit 1; }
done

echo "== the CLI's verdict column agrees with its alerts (learned model) =="
# The learned model re-learns at iteration 6 here: a result that keeps its
# deviation and raises no alert. A FAULT row must come with an alert.
"$CLI" --leaves=8 --spines=4 --bytes=8000000 --iters=8 --model=learned \
       --fault-leaf=4 --fault-spine=2 --drop=0.05 --seed=1 \
       --alerts="$WORK/learned_alerts.json" >"$WORK/learned.txt"
if grep -q "FAULT" "$WORK/learned.txt" &&
   [ "$(tr -d '[:space:]' <"$WORK/learned_alerts.json")" = "[]" ]; then
  echo "daemon_smoke: flowpulse_cli reads FAULT with no alert:" >&2
  cat "$WORK/learned.txt" >&2
  exit 1
fi

echo "== single daemon: replay + verdict + clean shutdown =="
"$DAEMON" --port=0 --port-file="$WORK/fp.port" --leaves=32 --spines=16 &
PID=$!
DAEMON_PIDS+=("$PID")
wait_port_file "$WORK/fp.port"
"$BENCH" --port-file="$WORK/fp.port" --stream="$WORK/fault.fpstream" \
         --connections=4 --pipeline=32 \
         --expect-link=$FAULT_LEAF:$FAULT_UPLINK --expect-iter=0 --shutdown
wait "$PID"   # SHUTDOWN must exit the event loop with status 0

echo "== two shards: route, merge, same link =="
"$DAEMON" --port=0 --port-file="$WORK/s0.port" --leaves=32 --spines=16 \
          --shard-index=0 --shard-count=2 &
PID0=$!
"$DAEMON" --port=0 --port-file="$WORK/s1.port" --leaves=32 --spines=16 \
          --shard-index=1 --shard-count=2 &
PID1=$!
DAEMON_PIDS+=("$PID0" "$PID1")
wait_port_file "$WORK/s0.port"
wait_port_file "$WORK/s1.port"
"$MERGE" --stream="$WORK/fault.fpstream" \
         --port-files="$WORK/s0.port,$WORK/s1.port" \
         --expect-link=$FAULT_LEAF:$FAULT_UPLINK --expect-iter=0 --shutdown
wait "$PID0"
wait "$PID1"

echo "daemon_smoke: OK"
