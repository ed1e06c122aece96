#!/usr/bin/env python3
"""Compare two checkouts on one end-to-end workload in alternating pairs.

    python3 bench/ab_pairs.py PARENT CHANGE --workload clos1k \\
        --seeds 28001-28010 --seconds 45

Pair i runs `perfbench/run.py --workload W --seed S_i --seconds T --trace 0`
once in each checkout, each building its own tree; odd pairs run the parent
first, even pairs the change. Each run's last stdout line is its JSON result,
printed here as it arrives.

Then, for every end-to-end metric that PARENT/BENCHMARK.json declares, it
prints each side's median [q1, q3], change ÷ parent (of the medians and the
median of the per-pair ratios), the pairs the change won (ties count for
neither) and each side's failed operations, and a verdict per metric:

  gain        the change wins at least 9 of 10 pairs, and its median beats
              the parent's by more than the parent's quartile spread;
  regression  the change's median is worse than the parent's by more than
              the metric's `bound` (a fraction of the parent's median);
  unresolved  no regression, but either side's quartile spread is wider
              than the bound: the runs cannot tell, unless every change run
              beats every parent run ("better in every run");
  within bound  none of these.

Where run.py prints a `report_hash` line (the simulator workloads), the two
sides must print the same hash, event count and packet count per seed.
Exits 1 on a regression, more failed operations than the parent, a
different behaviour line, or a run with no result; else 0. Quartiles
interpolate linearly between order statistics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def parse_run(stdout):
    """(result dict or None, behaviour line or None) of one run.py stdout."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    behaviour = next((ln.strip() for ln in lines if ln.startswith("info report_hash")), None)
    return result, behaviour


def quartiles(values):
    """(q1, median, q3), linear between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True when value a beats value b."""
    return a < b if direction == "lower" else a > b


def compare(metric, pairs):
    """Statistics and verdict of one metric over (parent, change) result pairs.

    `metric` is a BENCHMARK.json end_to_end entry. A pair counts only when
    both sides report the metric (run.py writes -1 for a missing value).
    """
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
            if p and c and name in p["metrics"] and name in c["metrics"]]
    both = [(p, c) for p, c in both if p >= 0 and c >= 0]
    out = {"name": name, "unit": metric.get("unit", ""), "pairs": len(both)}
    if not both:
        out["verdict"] = "no data"
        return out
    parent = [p for p, _ in both]
    change = [c for _, c in both]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    won = sum(1 for p, c in both if better(c, p, direction))
    ratios = [c / p for p, c in both if p > 0]
    out.update(parent=(pmed, pq1, pq3), change=(cmed, cq1, cq3), won=won,
               ratio=cmed / pmed if pmed > 0 else float("nan"),
               pair_ratio=statistics.median(ratios) if ratios else float("nan"))
    worse = cmed - pmed if direction == "lower" else pmed - cmed
    if worse > bound * pmed:
        verdict = "regression"
    elif won >= WIN_SHARE * len(both) and better(cmed, pmed, direction) \
            and abs(cmed - pmed) > pq3 - pq1:
        verdict = "gain"
    elif max(pq3 - pq1, cq3 - cq1) > bound * pmed:
        verdict = ("better in every run"
                   if all(better(c, p, direction) for c in change for p in parent)
                   else "unresolved")
    else:
        verdict = "within bound"
    out["verdict"] = verdict
    return out


def failures(results):
    """(failed, attempted) operations over one side's runs; a run with no
    result counts as one failed operation."""
    failed = attempted = 0
    for r in results:
        if r is None:
            failed += 1
            attempted += 1
        else:
            failed += r.get("failed", 0)
            attempted += r.get("attempted", 0)
    return failed, attempted


def report(metrics, pairs, behaviours):
    """Print the comparison; return the exit status."""
    status = 0
    for metric in metrics:
        s = compare(metric, pairs)
        if "parent" not in s:
            print(f"{s['name']}: {s['verdict']}")
            status = 1
            continue
        (pm, pq1, pq3), (cm, cq1, cq3) = s["parent"], s["change"]
        print(f"{s['name']} ({s['unit']}): parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  "
              f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  change/parent {s['ratio']:.4f} "
              f"(per-pair median {s['pair_ratio']:.4f})  change won {s['won']} of "
              f"{s['pairs']}  -> {s['verdict']}")
        if s["verdict"] == "regression":
            status = 1
    pf, pa = failures([p for p, _ in pairs])
    cf, ca = failures([c for _, c in pairs])
    print(f"failed operations: parent {pf} of {pa}, change {cf} of {ca}")
    if (cf / ca if ca else 1.0) > (pf / pa if pa else 1.0):
        print("-> the change fails a larger share of operations")
        status = 1
    differ = [seed for seed, (p, c) in behaviours.items() if p != c]
    if behaviours:
        print(f"behaviour (report_hash, events, tx_packets): same on "
              f"{len(behaviours) - len(differ)} of {len(behaviours)} seeds"
              + (f"; differs on {', '.join(map(str, differ))}" if differ else ""))
        if differ:
            status = 1
    if any(p is None or c is None for p, c in pairs):
        status = 1
    return status


def run_one(checkout, workload, seed, seconds):
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if p.returncode not in (0, 1):
        sys.stderr.write(p.stderr[-2000:])
    return parse_run(p.stdout)


def seed_range(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return list(range(lo, hi + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="first-last, one per pair")
    ap.add_argument("--seconds", required=True, type=float)
    args = ap.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((parent / "BENCHMARK.json").read_text())

    pairs, behaviours = [], {}
    for i, seed in enumerate(args.seeds, start=1):
        order = [("parent", parent), ("change", change)]
        if i % 2 == 0:
            order.reverse()
        got = {}
        for side, checkout in order:
            result, behaviour = run_one(checkout, args.workload, seed, args.seconds)
            got[side] = (result, behaviour)
            print(f"pair {i} seed {seed} {side}: {json.dumps(result)}", flush=True)
            if behaviour:
                print(f"pair {i} seed {seed} {side}: {behaviour}", flush=True)
        pairs.append((got["parent"][0], got["change"][0]))
        if got["parent"][1] or got["change"][1]:
            behaviours[seed] = (got["parent"][1], got["change"][1])

    print(f"workload {args.workload}, {len(pairs)} pairs (odd pairs parent first), "
          f"seeds {args.seeds[0]}-{args.seeds[-1]}, --seconds {args.seconds:g}")
    return report(bench["end_to_end"], pairs, behaviours)


if __name__ == "__main__":
    sys.exit(main())
