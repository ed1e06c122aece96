#!/usr/bin/env python3
"""--fix correctness and idempotence.

Builds a throwaway tree containing stale waivers (same-line, comment-above,
dangling-at-EOF) and misformatted-but-valid waivers, runs fix_paths twice,
and asserts:

  1. the first pass removes every stale directive and normalizes the
     sloppy ones, leaving the tree clean under full-mode fplint;
  2. the second pass is a byte-level no-op (idempotence).
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import engine  # noqa: E402
import fix  # noqa: E402
import waivers  # noqa: E402

FIXTURE = {
    # Stale same-line waiver: the rule does not fire on that line, so the
    # trailing comment is truncated away (the code stays).
    "stale_sameline.h": (
        "#pragma once\n"
        "#include <map>\n"
        "\n"
        "struct A {\n"
        "  std::map<int, int> by_id_;  // fplint: ok(unordered): nope\n"
        "};\n"
    ),
    # Stale comment-above waiver: the whole line vanishes.
    "stale_above.h": (
        "#pragma once\n"
        "#include <map>\n"
        "\n"
        "struct B {\n"
        "  // fplint: ok(pointer-key): int keys only\n"
        "  std::map<int, int> rank_;\n"
        "};\n"
    ),
    # Dangling waiver at EOF: trivially stale, line removed.
    "stale_eof.h": (
        "#pragma once\n"
        "\n"
        "struct C {\n"
        "  int x_ = 0;\n"
        "};\n"
        "// fplint: ok(wall-clock): attaches to nothing\n"
    ),
    # Valid but sloppily formatted waiver: normalized, never removed.
    "sloppy_valid.h": (
        "#pragma once\n"
        "#include <unordered_map>\n"
        "\n"
        "struct D {\n"
        "  //fplint:ok(unordered)   bounded lookup table, never iterated\n"
        "  std::unordered_map<int, int> lut_;\n"
        "};\n"
    ),
}

EXPECT = {
    "stale_sameline.h": (
        "#pragma once\n"
        "#include <map>\n"
        "\n"
        "struct A {\n"
        "  std::map<int, int> by_id_;\n"
        "};\n"
    ),
    "stale_above.h": (
        "#pragma once\n"
        "#include <map>\n"
        "\n"
        "struct B {\n"
        "  std::map<int, int> rank_;\n"
        "};\n"
    ),
    "stale_eof.h": (
        "#pragma once\n"
        "\n"
        "struct C {\n"
        "  int x_ = 0;\n"
        "};\n"
    ),
    "sloppy_valid.h": (
        "#pragma once\n"
        "#include <unordered_map>\n"
        "\n"
        "struct D {\n"
        "  // fplint: ok(unordered): bounded lookup table, never iterated\n"
        "  std::unordered_map<int, int> lut_;\n"
        "};\n"
    ),
}


def lint(paths):
    results = engine.run(paths, engine.FactCache(None))
    return [(disp, line, rule)
            for disp, findings in results for line, rule, _ in findings]


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="fplint-fixtest-") as tmp:
        root = Path(tmp)
        for name, text in FIXTURE.items():
            (root / name).write_text(text)
        paths, err = waivers.collect_paths([str(root)])
        assert err is None, err

        changed, edits = fix.fix_paths(paths, engine.FactCache(None))
        if not changed or edits == 0:
            print("FAIL: first --fix pass made no edits")
            failures += 1
        for name, want in EXPECT.items():
            got = (root / name).read_text()
            if got != want:
                failures += 1
                print("FAIL {}: after fix:\n---got---\n{}---want---\n{}"
                      .format(name, got, want))

        leftovers = lint(paths)
        if leftovers:
            failures += 1
            print("FAIL: findings remain after fix:")
            for disp, line, rule in leftovers:
                print("  {}:{}: {}".format(disp, line, rule))

        before = {name: (root / name).read_text() for name in FIXTURE}
        changed2, edits2 = fix.fix_paths(paths, engine.FactCache(None))
        after = {name: (root / name).read_text() for name in FIXTURE}
        if changed2 or edits2 or before != after:
            failures += 1
            print("FAIL: second --fix pass was not a no-op "
                  "(changed={} edits={})".format(changed2, edits2))

    if failures:
        print("fix_test: {} failure(s)".format(failures))
        return 1
    print("fix_test: OK — fix converges in one pass and is idempotent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
