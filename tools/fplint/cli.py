"""fplint command line.

Usage: python3 tools/fplint [options] <dir-or-file> [more paths...]

Options:
  --sarif FILE       also write findings as SARIF 2.1.0
  --fix              apply mechanical fixes (stale-waiver removal, waiver
                     normalization) before linting
  --no-cache         ignore and do not write the fact cache
  --cache-dir DIR    fact cache location (default .fplint-cache/)
  --stats            print files/cache/wall-time stats to stderr
  --rules            print the rule table and exit

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List

import engine
import fix as fixmod
import sarif
import waivers

VERSION = "1.0"


def _rule_table() -> str:
    rows = []
    for rule in sorted(waivers.ALL_RULES | {"bad-waiver"}):
        origin = "ported" if rule in waivers.PORTED_RULES else (
            "meta" if rule == "bad-waiver" else "scoped")
        waivable = "no" if rule in waivers.UNWAIVABLE or rule == "bad-waiver" \
            else "yes"
        rows.append((rule, origin, waivable,
                     sarif.RULE_DESCRIPTIONS.get(rule, "")))
    width = max(len(r[0]) for r in rows)
    lines = ["{:<{w}}  {:<6}  {:<8}  {}".format(
        "rule", "origin", "waivable", "description", w=width)]
    for rule, origin, waivable, desc in rows:
        lines.append("{:<{w}}  {:<6}  {:<8}  {}".format(
            rule, origin, waivable, desc, w=width))
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="fplint", add_help=True,
        description="scope-aware static analysis for the FlowPulse tree")
    ap.add_argument("paths", nargs="*")
    ap.add_argument("--sarif", metavar="FILE")
    ap.add_argument("--fix", action="store_true")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--cache-dir", metavar="DIR", default=".fplint-cache")
    ap.add_argument("--stats", action="store_true")
    ap.add_argument("--rules", action="store_true")
    ap.add_argument("--version", action="version",
                    version="fplint {}".format(VERSION))
    args = ap.parse_args(argv)

    if args.rules:
        print(_rule_table())
        return 0
    if not args.paths:
        print(__doc__, file=sys.stderr)
        return 2

    paths, err = waivers.collect_paths(args.paths)
    if err is not None:
        print("fplint: {}".format(err), file=sys.stderr)
        return 2

    cache_file = None if args.no_cache else \
        Path(args.cache_dir) / "facts.pickle"
    cache = engine.FactCache(cache_file)
    t0 = time.monotonic()

    if args.fix:
        changed, edits = fixmod.fix_paths(paths, cache)
        if changed:
            print("fplint: fixed {} waiver issue(s) in {} file(s)".format(
                edits, changed))

    results = engine.run(paths, cache)
    text, count = engine.render_text(results)
    print(text)

    if args.sarif:
        sarif.write_sarif(args.sarif, results, VERSION)

    if args.stats:
        dt = time.monotonic() - t0
        print("fplint: {} file(s), {} cached, {} analyzed, {:.3f}s".format(
            len(paths), cache.hits, cache.misses, dt), file=sys.stderr)

    return 1 if count else 0
