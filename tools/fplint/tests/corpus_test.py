#!/usr/bin/env python3
"""Corpus test: every rule, positive and negative, against inline markers.

Each immediate subdirectory of corpus/ is one case, linted in isolation
(cross-TU indexes are built per case). Expectations are inline markers in
the snippet sources:

    // ... expect[<rule>]        a finding of <rule> on THIS line
    // ... expect[<rule>]@N      a finding of <rule> on line N of this file
                                 (for findings on lines that cannot carry
                                 their own comment, e.g. a bad waiver
                                 whose justification must stay empty)

The comparison is bidirectional: a missing expected finding fails, and so
does any unexpected finding — negative cases are simply case directories
with no markers at all.
"""

import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import engine  # noqa: E402
import waivers  # noqa: E402

EXPECT_RE = re.compile(r"expect\[([\w-]+)\](?:@(\d+))?")


def expected_for(case: Path):
    exp = set()
    for f in sorted(case.rglob("*")):
        if not f.is_file() or f.suffix not in waivers.SUFFIXES:
            continue
        for lineno, line in enumerate(f.read_text().splitlines(), 1):
            for m in EXPECT_RE.finditer(line):
                at = int(m.group(2)) if m.group(2) else lineno
                exp.add((str(f), at, m.group(1)))
    return exp


def actual_for(case: Path):
    paths, err = waivers.collect_paths([str(case)])
    if err:
        raise SystemExit("corpus_test: " + err)
    results = engine.run(paths, engine.FactCache(None))
    return {(disp, line, rule)
            for disp, findings in results
            for line, rule, _ in findings}


def main() -> int:
    corpus = HERE / "corpus"
    cases = sorted(d for d in corpus.iterdir() if d.is_dir())
    if not cases:
        print("corpus_test: no cases found under", corpus)
        return 1
    failures = 0
    total_expected = 0
    rules_covered = set()
    for case in cases:
        exp = expected_for(case)
        act = actual_for(case)
        total_expected += len(exp)
        rules_covered.update(rule for _, _, rule in exp)
        missing = exp - act
        extra = act - exp
        if missing or extra:
            failures += 1
            print("FAIL {}".format(case.name))
            for f, line, rule in sorted(missing):
                print("  missing: {}:{}: {}".format(f, line, rule))
            for f, line, rule in sorted(extra):
                print("  extra:   {}:{}: {}".format(f, line, rule))
    # Every rule the engine knows (plus the bad-waiver meta finding) must
    # have at least one firing snippet — a rule nothing exercises is dead.
    all_rules = set(waivers.ALL_RULES) | {"bad-waiver"}
    unexercised = all_rules - rules_covered
    if unexercised:
        failures += 1
        print("FAIL rule-coverage: no positive snippet fires: "
              + ", ".join(sorted(unexercised)))
    if failures:
        print("corpus_test: {} failure(s)".format(failures))
        return 1
    print("corpus_test: OK — {} case(s), {} expected finding(s), "
          "{} rule(s) covered".format(len(cases), total_expected,
                                      len(rules_covered)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
