#!/usr/bin/env python3
"""FlowPulse end-to-end benchmark: the packet simulator and flowpulsed.

    python3 perfbench/run.py --workload ring32x16 --seed 1 --seconds 25 --trace 0

Builds the program from source (perfbench/CMakeLists.txt) into .bench_build/
at the checkout root, runs one workload, checks what its outputs mean, and
prints every metric as "metric <name> = <value> <unit>". The last line of
stdout is the JSON result. --trace 0 reports the end-to-end metrics of a
plain run; --trace 1 the per-layer metrics of a traced and a gprof-profiled
run. Exits 1 when a correctness check fails, 2 when it cannot build or run.
See perfbench/README.md for the workloads, metrics and how to read them.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default optimized build
OPTIMIZED = ("Release", "RelWithDebInfo")
DEADLINE_S = 165   # stop starting repetitions past this (a run must end by 180 s)
HARD_LIMIT_S = 175  # kill a repetition still running this long after the build
MIN_REPS = 2
# Construct-only repetitions per plain run, each a cold process; 40 take
# 0.2 s (ring32x16) to 3.2 s (clos1k).
SETUP_REPS = 40
NPROC = os.cpu_count() or 1
KILL_AT = math.inf  # set once the build is done

WORKLOADS = ("ring32x16", "clos1k", "daemon_ingest")
SIM_WORKLOADS = ("ring32x16", "clos1k")

# End-to-end metrics, reported by every workload (see README.md for what
# each one means per workload).
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
}

MODULES = ("sim", "net", "transport", "collective", "fp", "ctrl", "exp", "daemon")

# Per-layer metrics of the traced run; 0 where the layer is idle on the
# workload or not observable from outside the program.
PER_LAYER = {
    "sim.events": "count",
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "sim.events_per_hop": "ratio",
    "sim.teardown_s": "s",
    "sim.lane4_speedup": "ratio",
    "net.tx_packets": "count",
    "net.tx_bytes": "bytes",
    "net.dropped_packets": "count",
    "net.hops_per_s": "1/s",
    "transport.data_packets": "count",
    "transport.retx_packets": "count",
    "transport.acks": "count",
    "transport.messages": "count",
    "transport.retx_ratio": "ratio",
    "collective.iter_host_ms_p50": "ms",
    "collective.iter_host_ms_max": "ms",
    "collective.iter_sim_us": "us",
    "exp.fabric_build_s": "s",
    "exp.schedule_s": "s",
    "fp.predict_s": "s",
    "fp.checks": "count",
    "fp.alerts": "count",
    "fp.false_alarm_rate": "ratio",
    "fp.detect_delay_iters": "iterations",
    "ctrl.actions": "count",
    "ctrl.quarantine_iter": "iteration",
    "daemon.ingest_rps": "1/s",
    "daemon.ingest_p99_us": "us",
    "daemon.query_p99_us": "us",
    "daemon.engine_us_per_frame": "us",
    "daemon.decode_us_per_frame": "us",
    "daemon.server_cpu_us_per_frame": "us",
    "daemon.server_busy": "ratio",
    "daemon.rtt_floor_us": "us",
    "daemon.gen_lag_p99_us": "us",
    "daemon.rejected": "count",
    "daemon.errors": "count",
    "daemon.bytes_in_per_frame": "bytes",
    **{f"prof.{m}_share": "ratio" for m in MODULES + ("other",)},
    "trace.overhead": "ratio",
    "prof.overhead": "ratio",
}

# Tiny inputs for the smoke test (perfbench/smoke_test.py): same code paths,
# a few seconds per workload.
TINY = {
    "ring32x16": ["--leaves=8", "--spines=4", "--bytes=1048576", "--iters=8"],
    "clos1k": ["--pods=2", "--bytes=65536"],
    "daemon_ingest": ["--leaves=8", "--spines=4", "--closed-iters=16000",
                      "--open-iters=200"],
}
# The untimed warm-up: a full repetition, except clos1k at 4 pods (256
# hosts) — it pages in the same code at a tenth of the cost.
WARMUP = {"ring32x16": [], "clos1k": ["--pods=4"], "daemon_ingest": []}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def cache_build_type(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return ""
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
    return m.group(1).strip() if m else ""


def build(kind):
    """Configure (once) and build .bench_build/<kind>; kind is plain|prof."""
    build_dir = BUILD / kind
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if kind == "prof":
                cmd += ["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail(f"cmake configure of the {kind} build failed")
        cmd = ["cmake", "--build", str(build_dir), "-j", str(NPROC)]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"the {kind} build failed")
    # Same guard as bench/record_perf.sh: timings of an unoptimized build
    # mean nothing.
    build_type = cache_build_type(build_dir)
    if build_type not in OPTIMIZED:
        fail(f"{build_dir} is a '{build_type}' build; refusing to measure a "
             f"non-optimized build (want one of {', '.join(OPTIMIZED)})")
    return build_dir


# --------------------------------------------------------------------------
# Running repetitions
# --------------------------------------------------------------------------

def rep(bin_dir, workload, seed, extra=(), cwd=None):
    """One repetition in a fresh fpbench process; its JSON line or None. It
    is killed if it would run past the run's time limit."""
    cmd = [str(bin_dir / "fpbench"), workload, f"--seed={seed}", *extra]
    if workload == "daemon_ingest" and not any(a.startswith("--flowpulsed=") for a in extra):
        cmd.append(f"--flowpulsed={bin_dir / 'flowpulsed'}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=cwd, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, KILL_AT - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # fpbench and its flowpulsed
        proc.communicate()
        log(f"perfbench: {workload} repetition timed out")
        return None
    if err.strip():
        log(err.strip())
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} repetition exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


class Tally:
    """Operations attempted and failed over a run's repetitions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, r):
        if r is None:
            self.attempted += 1
            self.failed += 1
            self.failures.append("a repetition crashed or timed out")
            return
        self.attempted += r["ops_attempted"]
        self.failed += r["ops_failed"]
        self.failures += r["failures"]

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 1]."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = p * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def num(x):
    """A JSON number: missing/NaN values become -1 (documented sentinel)."""
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return -1.0
    return float(x)


def same_hash(reps, tally, what):
    hashes = {r["report_hash"] for r in reps if r and "report_hash" in r}
    tally.expect(len(hashes) <= 1, f"{what}: report hash differs between repetitions")


# --------------------------------------------------------------------------
# Plain run: end-to-end metrics
# --------------------------------------------------------------------------

def plain_run(workload, seed, seconds, plain_dir, size, started):
    tally = Tally()
    warm = rep(plain_dir, workload, seed, size or WARMUP[workload])
    if warm is None:
        tally.add(None)
    setups = []
    for _ in range(SETUP_REPS):
        r = rep(plain_dir, workload, seed, [*size, "--setup-only"])
        tally.add(r)
        if r is not None:
            setups.append(r["setup_s"])
    reps = []
    t0 = time.monotonic()
    while True:
        r = rep(plain_dir, workload, seed, size)
        reps.append(r)
        tally.add(r)
        elapsed = time.monotonic() - t0
        per_rep = elapsed / len(reps)
        if elapsed >= seconds and len(reps) >= MIN_REPS:
            break
        if time.monotonic() - started + per_rep > DEADLINE_S:
            break
    measured = time.monotonic() - t0
    ok = [r for r in reps if r is not None]
    if workload in SIM_WORKLOADS:
        same_hash(ok, tally, workload)

    def med(key):
        vals = [r[key] for r in ok if r.get(key) is not None]
        return statistics.median(vals) if vals else float("nan")

    steps = [s for r in ok for s in r["step_ms"]]
    setups += [r["setup_s"] for r in ok]
    metrics = {
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "total_s": med("total_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "latency_p50_ms": percentile(steps, 0.5),
    }

    out = [f"workload {workload} seed {seed}: {len(reps)} repetitions in "
           f"{measured:.1f} s after 1 untimed warm-up"]
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups",
        "total_s": f"median of {len(ok)}",
        "peak_rss_mb": f"median of {len(ok)}",
        "latency_p50_ms": f"p50 of {len(steps)} samples",
    }
    for name, unit in END_TO_END.items():
        out.append(f"metric {name} = {metrics[name]:.6g} {unit}  ({notes[name]})")
    # Detection quality and the error rate: gated by the correctness checks
    # rather than by a bound, so printed here for the record.
    first = ok[0] if ok else {}
    out.append(f"metric detect_delay_iters = {num(first.get('detect_delay_iters')):g} iterations")
    out.append(f"metric false_alarm_rate = {num(first.get('false_alarm_rate')):.6g} ratio  "
               f"({first.get('fp.false_alarms', 0)} of {first.get('fp.clean_checks', 0)} "
               f"fault-free port checks)")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    out.append(f"metric error_rate = {error_rate:.6g} ratio  "
               f"({tally.failed} of {tally.attempted} operations)")
    if workload == "daemon_ingest":
        opens = [s * 1e3 for r in ok for s in r["step_ms"]]
        queries = [q * 1e3 for r in ok for q in r["query_ms"]]
        rps = med("ingest_rps")
        out.append(f"metric ingest_rps = {rps:.6g} COUNTERS/s  (closed loop, median of {len(ok)})")
        out.append(f"metric ingest_p50_us = {percentile(opens, 0.5):.6g} us  "
                   f"(open loop, {len(opens)} samples)")
        out.append(f"metric ingest_p99_us = {percentile(opens, 0.99):.6g} us  "
                   f"(open loop, {len(opens)} samples)")
        out.append(f"metric query_p99_us = {percentile(queries, 0.99):.6g} us  "
                   f"({len(queries)} samples)")
    else:
        out.append(f"metric latency_max_ms = {max(steps) if steps else float('nan'):.6g} ms  "
                   f"(slowest of {len(steps)} simulated iterations)")
        if first.get("false_alarm_ports"):
            out.append(f"info false alarms: {'; '.join(first['false_alarm_ports'])}")
        if "injected_rel_dev" in first:
            out.append(f"info rel_dev of the injected (leaf, core) ports = "
                       f"{first['injected_rel_dev']}; largest other alert in their rows = "
                       f"{first['other_rel_dev']}")
        out.append(f"info report_hash = {first.get('report_hash')}  "
                   f"sim.events = {first.get('events')}  net.tx_packets = {first.get('tx_packets')}"
                   + (f"  collective.iter_sim_us = {first['iter_sim_us']}"
                      if "iter_sim_us" in first else ""))
    return metrics, tally, out


# --------------------------------------------------------------------------
# Traced run: per-layer metrics
# --------------------------------------------------------------------------

def strip_nested(name):
    """Drop the contents of <...> and (...) so only the outer name is left."""
    out, depth = [], 0
    for ch in name:
        if ch in "<(":
            depth += 1
        elif ch in ">)" and depth:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def module_of(symbol):
    """flowpulse::<module>:: of the function itself, else of its arguments."""
    for text in (strip_nested(symbol), symbol):
        m = re.search(r"flowpulse::(\w+)::", text)
        if m:
            return m.group(1) if m.group(1) in MODULES else "other"
    return "other"


FLAT_LINE = re.compile(
    r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def fold_gprof(flat_profile):
    """Self seconds per module from `gprof -b -p` output, as shares."""
    self_s = {m: 0.0 for m in MODULES + ("other",)}
    for line in flat_profile.splitlines():
        m = FLAT_LINE.match(line)
        if m:
            self_s[module_of(m.group(2))] += float(m.group(1))
    total = sum(self_s.values())
    return {m: (s / total if total else 0.0) for m, s in self_s.items()}, total


def profiled_rep(workload, seed, plain_dir, prof_dir, size):
    """One repetition under gprof: the -pg fpbench for the simulator, the -pg
    flowpulsed (driven by the plain generator) for the daemon."""
    run_dir = BUILD / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if workload == "daemon_ingest":
            binary = prof_dir / "flowpulsed"
            r = rep(plain_dir, workload, seed, [*size, f"--flowpulsed={binary}"], cwd=run_dir)
        else:
            binary = prof_dir / "fpbench"
            r = rep(prof_dir, workload, seed, size, cwd=run_dir)
        gmon = run_dir / "gmon.out"
        if r is None or not gmon.exists():
            return r, None, 0.0
        flat = subprocess.run(["gprof", "-b", "-p", str(binary), str(gmon)],
                              capture_output=True, text=True).stdout
        shares, sampled = fold_gprof(flat)
        return r, shares, sampled
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def traced_run(workload, seed, plain_dir, prof_dir, size):
    tally = Tally()
    base = rep(plain_dir, workload, seed, size)
    traced = rep(plain_dir, workload, seed, [*size, "--spans"])
    prof, shares, sampled = profiled_rep(workload, seed, plain_dir, prof_dir, size)
    for r in (base, traced, prof):
        tally.add(r)
    tally.expect(sampled > 0, f"{workload}: gprof sampled nothing")
    laned = None
    if workload == "clos1k":
        lanes = min(4, NPROC)
        laned = rep(plain_dir, workload, seed, [*size, f"--lanes={lanes}"])
        tally.add(laned)
    if workload in SIM_WORKLOADS:
        # Spans, gprof and lanes must not change what is simulated.
        same_hash([base, traced, prof, laned], tally, workload)

    t = traced or {}

    def g(key):  # absent means the layer is idle here
        return t.get(key) or 0.0

    events, tx, run_s = g("events"), g("tx_packets"), g("run_s")
    steps = t.get("step_ms") if workload in SIM_WORKLOADS else None
    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "sim.events": events,
        "sim.run_s": run_s,
        "sim.ns_per_event": run_s * 1e9 / events if events else 0.0,
        "sim.events_per_hop": events / tx if tx else 0.0,
        "sim.teardown_s": g("teardown_s"),
        "net.tx_packets": tx,
        "net.tx_bytes": g("tx_bytes"),
        "net.dropped_packets": g("dropped_packets"),
        "net.hops_per_s": tx / run_s if run_s else 0.0,
        "transport.data_packets": g("transport.data_packets"),
        "transport.retx_packets": g("transport.retx_packets"),
        "transport.acks": g("transport.acks"),
        "transport.messages": g("transport.messages"),
        "transport.retx_ratio": (g("transport.retx_packets") / g("transport.data_packets")
                                 if g("transport.data_packets") else 0.0),
        "collective.iter_host_ms_p50": percentile(steps, 0.5) if steps else 0.0,
        "collective.iter_host_ms_max": max(steps) if steps else 0.0,
        "collective.iter_sim_us": sum(t.get("iter_sim_us", [])),
        "exp.fabric_build_s": g("exp.fabric_build_s"),
        "exp.schedule_s": g("exp.schedule_s"),
        "fp.predict_s": g("fp.predict_s"),
        "fp.checks": g("fp.checks"),
        "fp.alerts": g("fp.alerts"),
        "fp.false_alarm_rate": g("false_alarm_rate"),
        "fp.detect_delay_iters": num(t.get("detect_delay_iters")),
        "ctrl.actions": g("ctrl.actions"),
        "ctrl.quarantine_iter": (num(t.get("ctrl.quarantine_iter"))
                                 if workload == "ring32x16" else 0.0),
    })
    if workload == "daemon_ingest":
        for key in ("ingest_rps", "ingest_p99_us", "query_p99_us"):
            m[f"daemon.{key}"] = g(key)
        for key in ("engine_us_per_frame", "decode_us_per_frame", "server_cpu_us_per_frame",
                    "server_busy", "rtt_floor_us", "gen_lag_p99_us", "rejected", "errors",
                    "bytes_in_per_frame"):
            m[f"daemon.{key}"] = g(f"daemon.{key}")
    if laned and base and laned.get("laned"):
        m["sim.lane4_speedup"] = base["run_s"] / laned["run_s"]
    if shares:
        for mod, share in shares.items():
            m[f"prof.{mod}_share"] = share
    if base and traced:
        m["trace.overhead"] = traced["total_s"] / base["total_s"]
    if base and prof:
        m["prof.overhead"] = prof["total_s"] / base["total_s"]

    out = [f"workload {workload} seed {seed}: traced run (1 plain, 1 traced, 1 gprof"
           + (f", 1 at {min(4, NPROC)} lanes" if laned is not None else "") + " repetition)"]
    for name, unit in PER_LAYER.items():
        out.append(f"metric {name} = {m[name]:.6g} {unit}")
    out.append(f"info gprof sampled {sampled:.2f} s of self time")
    return m, tally, out


# --------------------------------------------------------------------------

def environment():
    def git(*args):
        # Never look above the checkout: outside a git checkout this reports
        # "unknown" rather than some enclosing repository's sha.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            p = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                               text=True, timeout=10, env=env)
            return p.stdout.strip() if p.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            return None
    sha = git("rev-parse", "HEAD") or "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("yes" if status else "no")
    try:
        load = " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        load = "unknown"
    return (f"env git_sha={sha} dirty={dirty} build_type={BUILD_TYPE} "
            f"nproc={NPROC} loadavg={load}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's inputs")
    ap.add_argument("--fpbench-arg", action="append", default=[],
                    help="extra flag for every fpbench repetition (smoke test)")
    args = ap.parse_args()

    if not (ROOT / "src").is_dir() or shutil.which("cmake") is None:
        fail(f"no FlowPulse sources under {ROOT / 'src'} (or no cmake)")
    if args.trace and shutil.which("gprof") is None:
        fail("the traced run needs gprof")
    plain_dir = build("plain")
    prof_dir = build("prof") if args.trace else None
    started = time.monotonic()
    global KILL_AT
    KILL_AT = started + HARD_LIMIT_S

    size = (TINY[args.workload] if args.size == "tiny" else []) + args.fpbench_arg
    print(environment(), flush=True)
    if args.trace:
        metrics, tally, lines = traced_run(args.workload, args.seed, plain_dir, prof_dir, size)
        units = PER_LAYER
    else:
        metrics, tally, lines = plain_run(args.workload, args.seed, args.seconds, plain_dir,
                                          size, started)
        units = END_TO_END
    for line in lines:
        print(line)
    for f in tally.failures:
        print(f"FAIL {f}")
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": num(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
