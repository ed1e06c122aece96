#!/usr/bin/env python3
"""Checks bench/ab_pairs.py's statistics and verdicts on canned run.py output.

    python3 bench/ab_pairs_test.py
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab_pairs  # noqa: E402

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "total_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def run_stdout(values, failed=0, report_hash=17132852872153006606, events=10612345):
    """What perfbench/run.py --trace 0 prints for one run."""
    result = {
        "correct": failed == 0,
        "attempted": 52,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()},
    }
    return "\n".join([
        "env git_sha=0000 dirty=no build_type=RelWithDebInfo nproc=4 loadavg=0.1 0.1 0.1",
        "workload clos1k seed 28001: 11 repetitions in 45.2 s after 1 untimed warm-up",
        *(f"metric {name} = {v:.6g} s  (median of 11)" for name, v in values.items()),
        f"info report_hash = {report_hash}  sim.events = {events}  net.tx_packets = 5120000",
        json.dumps(result),
    ]) + "\n"


PARENT_RSS = [23.58, 23.61, 23.52, 23.60, 23.57, 23.66, 23.61, 23.55, 23.63, 23.59]
PARENT_TOTAL = [2.40, 2.35, 2.50, 2.38, 2.45, 2.41, 2.36, 2.44, 2.39, 2.42]
PARENT_SETUP = [0.0090, 0.0091, 0.0089, 0.0092, 0.0090, 0.0088, 0.0093, 0.0090, 0.0091, 0.0089]
# Wider than its 25% bound between quartiles: 1000-4000 ms.
PARENT_LATENCY = [1000.0, 4000.0, 1200.0, 3800.0, 1500.0, 3500.0, 2000.0, 3000.0, 2500.0, 2200.0]


def canned_pairs(change_rss, change_total, change_setup=PARENT_SETUP, change_latency=None):
    change_latency = change_latency or list(reversed(PARENT_LATENCY))
    pairs = []
    for i in range(10):
        parent = {"setup_s": PARENT_SETUP[i], "total_s": PARENT_TOTAL[i],
                  "peak_rss_mb": PARENT_RSS[i], "latency_p50_ms": PARENT_LATENCY[i]}
        change = {"setup_s": change_setup[i], "total_s": change_total[i],
                  "peak_rss_mb": change_rss[i], "latency_p50_ms": change_latency[i]}
        pairs.append((ab_pairs.parse_run(run_stdout(parent))[0],
                      ab_pairs.parse_run(run_stdout(change))[0]))
    return pairs


def verdicts(pairs):
    return {m["name"]: ab_pairs.compare(m, pairs)["verdict"] for m in METRICS}


class ParseRun(unittest.TestCase):
    def test_reads_the_last_line_and_the_behaviour_line(self):
        result, behaviour = ab_pairs.parse_run(run_stdout({"total_s": 2.5}, failed=2))
        self.assertEqual(result["metrics"]["total_s"]["value"], 2.5)
        self.assertEqual(result["failed"], 2)
        self.assertEqual(behaviour, "info report_hash = 17132852872153006606  "
                                    "sim.events = 10612345  net.tx_packets = 5120000")

    def test_a_run_cut_short_has_no_result(self):
        text = run_stdout({"total_s": 2.5})
        result, _ = ab_pairs.parse_run(text[: text.rindex("{") + 10])
        self.assertIsNone(result)
        self.assertEqual(ab_pairs.parse_run(""), (None, None))


class Statistics(unittest.TestCase):
    def test_quartiles_interpolate_between_order_statistics(self):
        self.assertEqual(ab_pairs.quartiles([float(v) for v in range(1, 11)]), (3.25, 5.5, 7.75))
        self.assertEqual(ab_pairs.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_medians_ratios_and_pairs_won(self):
        change_rss = [v - 5.6 for v in PARENT_RSS]
        s = ab_pairs.compare(METRICS[2], canned_pairs(change_rss, PARENT_TOTAL))
        self.assertEqual(s["pairs"], 10)
        self.assertEqual(s["won"], 10)
        self.assertAlmostEqual(s["parent"][0], 23.595)
        self.assertAlmostEqual(s["parent"][1], 23.5725)
        self.assertAlmostEqual(s["parent"][2], 23.61)
        self.assertAlmostEqual(s["change"][0], 23.595 - 5.6)
        self.assertAlmostEqual(s["ratio"], (23.595 - 5.6) / 23.595)

    def test_ties_count_for_neither_side(self):
        s = ab_pairs.compare(METRICS[1], canned_pairs(PARENT_RSS, PARENT_TOTAL))
        self.assertEqual(s["won"], 0)
        self.assertAlmostEqual(s["pair_ratio"], 1.0)


class Verdicts(unittest.TestCase):
    def test_gain_needs_nine_of_ten_pairs(self):
        change_rss = [v - 5.6 for v in PARENT_RSS]
        change_rss[3] = PARENT_RSS[3] + 0.01  # one lost pair: still 9 of 10
        v = verdicts(canned_pairs(change_rss, PARENT_TOTAL))
        self.assertEqual(v["peak_rss_mb"], "gain")
        change_rss[4] = PARENT_RSS[4] + 0.01  # 8 of 10
        v = verdicts(canned_pairs(change_rss, PARENT_TOTAL))
        self.assertEqual(v["peak_rss_mb"], "within bound")

    def test_gain_needs_a_gap_wider_than_the_parents_quartile_spread(self):
        # Lower in all 10 pairs, by less than the parent's 0.0375 MiB spread.
        change_rss = [v - 0.03 for v in PARENT_RSS]
        v = verdicts(canned_pairs(change_rss, PARENT_TOTAL))
        self.assertEqual(v["peak_rss_mb"], "within bound")

    def test_regression_is_a_median_worse_than_the_bound(self):
        v = verdicts(canned_pairs(PARENT_RSS, [t * 1.3 for t in PARENT_TOTAL]))
        self.assertEqual(v["total_s"], "regression")
        v = verdicts(canned_pairs(PARENT_RSS, [t * 1.2 for t in PARENT_TOTAL]))
        self.assertEqual(v["total_s"], "within bound")
        v = verdicts(canned_pairs([r * 1.11 for r in PARENT_RSS], PARENT_TOTAL))
        self.assertEqual(v["peak_rss_mb"], "regression")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        v = verdicts(canned_pairs(PARENT_RSS, PARENT_TOTAL))
        self.assertEqual(v["latency_p50_ms"], "unresolved")
        self.assertEqual(v["setup_s"], "within bound")
        # Unless every change run beats every parent run; a gain still needs
        # a gap wider than the parent's 1625-3375 ms quartiles.
        v = verdicts(canned_pairs(PARENT_RSS, PARENT_TOTAL, change_latency=[900.0] * 10))
        self.assertEqual(v["latency_p50_ms"], "better in every run")
        v = verdicts(canned_pairs(PARENT_RSS, PARENT_TOTAL, change_latency=[500.0] * 10))
        self.assertEqual(v["latency_p50_ms"], "gain")


class Report(unittest.TestCase):
    def status(self, pairs, behaviours=None):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = ab_pairs.report(METRICS, pairs, behaviours or {})
        return status, out.getvalue()

    def test_no_regression_exits_0(self):
        status, out = self.status(canned_pairs([v - 5.6 for v in PARENT_RSS], PARENT_TOTAL),
                                  {1: ("same", "same")})
        self.assertEqual(status, 0, out)
        self.assertIn("peak_rss_mb (MiB): parent 23.595 [23.5725, 23.61]", out)
        self.assertIn("failed operations: parent 0 of 520, change 0 of 520", out)
        self.assertIn("same on 1 of 1 seeds", out)

    def test_more_failed_operations_exit_1(self):
        pairs = canned_pairs(PARENT_RSS, PARENT_TOTAL)
        pairs[0][1]["failed"] = 1
        status, out = self.status(pairs)
        self.assertEqual(status, 1)
        self.assertIn("change 1 of 520", out)

    def test_a_missing_result_or_other_behaviour_exits_1(self):
        pairs = canned_pairs(PARENT_RSS, PARENT_TOTAL)
        pairs[2] = (pairs[2][0], None)
        self.assertEqual(self.status(pairs)[0], 1)
        status, out = self.status(canned_pairs(PARENT_RSS, PARENT_TOTAL),
                                  {28001: ("hash 1", "hash 2")})
        self.assertEqual(status, 1)
        self.assertIn("differs on 28001", out)


if __name__ == "__main__":
    unittest.main()
