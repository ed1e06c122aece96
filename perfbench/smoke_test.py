#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke_test.py

For every workload, a plain and a traced run must exit 0, pass every
correctness check, run at least the checks each repetition carries, and
print every metric that BENCHMARK.json names, with its unit, both as a
"metric <name> = <value> <unit>" line and in the final JSON. One run is
given a deliberately wrong expectation (the daemon's fault one leaf away
from where it was injected); it must fail. Exits non-zero on any problem.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Checks one repetition of each workload carries (see fpbench.cc).
CHECKS_PER_REP = {"ring32x16": 4, "clos1k": 3, "daemon_ingest": 9}
# Per-layer metrics that must be non-zero on each workload's traced run.
LIVE_LAYERS = {
    "ring32x16": ["sim.events", "sim.run_s", "net.tx_packets", "transport.data_packets",
                  "collective.iter_host_ms_p50", "exp.fabric_build_s", "fp.checks",
                  "ctrl.actions", "trace.overhead", "prof.overhead"],
    "clos1k": ["sim.events", "sim.teardown_s", "sim.lane4_speedup", "net.tx_packets",
               "exp.schedule_s", "fp.predict_s", "fp.alerts", "trace.overhead"],
    "daemon_ingest": ["daemon.ingest_rps", "daemon.engine_us_per_frame",
                      "daemon.decode_us_per_frame", "daemon.rtt_floor_us",
                      "daemon.bytes_in_per_frame", "prof.daemon_share", "fp.alerts"],
}

problems = []


def check(ok, what):
    if not ok:
        problems.append(what)
        print(f"  FAIL {what}", flush=True)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return p.returncode, result, p.stdout, p.stderr


def metric_lines(stdout):
    found = {}
    for line in stdout.splitlines():
        m = re.match(r"^metric (\S+) = (\S+) (\S+)", line)
        if m:
            found[m.group(1)] = m.group(3)
    return found


def expect_metrics(result, stdout, spec_metrics, label):
    printed = metric_lines(stdout)
    names = {m["name"]: m["unit"] for m in spec_metrics}
    check(set(result["metrics"]) == set(names), f"{label}: JSON metrics differ from BENCHMARK.json")
    for name, unit in names.items():
        got = result["metrics"].get(name, {})
        check(got.get("unit") == unit, f"{label}: {name} has unit {got.get('unit')}, want {unit}")
        check(isinstance(got.get("value"), (int, float)), f"{label}: {name} is not a number")
        check(printed.get(name) == unit, f"{label}: no 'metric {name} = ... {unit}' line")


def main():
    for workload in CHECKS_PER_REP:
        print(f"{workload}: plain", flush=True)
        code, result, out, err = run(workload, 0)
        check(code == 0 and result is not None and result["correct"],
              f"{workload} plain: exit {code}, result {result}\n{err[-2000:]}")
        if result:
            expect_metrics(result, out, SPEC["end_to_end"], f"{workload} plain")
            # Two timed repetitions at least, each with all its checks.
            check(result["attempted"] >= 2 * CHECKS_PER_REP[workload],
                  f"{workload} plain: only {result['attempted']} operations attempted")
            printed = metric_lines(out)
            for name in ("detect_delay_iters", "false_alarm_rate", "error_rate"):
                check(name in printed, f"{workload} plain: no '{name}' line")
            check(out.startswith("env git_sha="), f"{workload} plain: no environment line")

        print(f"{workload}: traced", flush=True)
        code, result, out, err = run(workload, 1)
        check(code == 0 and result is not None and result["correct"],
              f"{workload} traced: exit {code}, result {result}\n{err[-2000:]}")
        if result:
            expect_metrics(result, out, SPEC["per_layer"], f"{workload} traced")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            for name in LIVE_LAYERS[workload]:
                check(values.get(name, 0) > 0, f"{workload} traced: {name} is not positive")
            shares = sum(v for k, v in values.items() if k.endswith("_share"))
            check(abs(shares - 1.0) < 1e-6, f"{workload} traced: prof shares sum to {shares}")

    # The deliberately wrong expectation must fail, with a non-zero exit,
    # correct == false and the verdict check named.
    print("daemon_ingest: wrong expectation", flush=True)
    code, result, out, _ = run("daemon_ingest", 0, "--fpbench-arg=--expect-leaf-offset=1")
    check(code == 1 and result is not None and not result["correct"] and result["failed"] >= 1,
          f"wrong expectation was not caught: exit {code}, result {result}")
    check("verdict does not name exactly the injected link" in out,
          "wrong expectation: the verdict check is not named")

    print("smoke test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
