"""`fplint --fix`: the mechanical fixes, and only the mechanical ones.

Two transformations, both provably behavior-preserving for the lint:

  * stale-waiver removal — a waiver whose rule does not fire on the line
    it targets is deleted (the whole line when the directive is the only
    thing on it, just the directive text when it trails code);
  * directive normalization — a surviving, valid waiver is rewritten to
    the canonical spacing `// fplint: ok(<rule>): <justification>`.

Anything that needs judgement (an unknown rule id, a missing
justification, an actual finding) is left for a human. Running --fix
twice is a no-op the second time — the idempotence ctest proves it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

import engine
import waivers


def fix_text(text: str, stale: List[waivers.Waiver]) -> Tuple[str, int]:
    """Apply both fixes to one file's text. Returns (new_text, n_edits)."""
    # splitlines(True) keeps each line's own terminator, so files without
    # a trailing newline round-trip byte-exactly.
    lines = text.splitlines(True)
    edits = 0

    # Stale removal, bottom-up so earlier directive line numbers stay valid.
    for w in sorted(stale, key=lambda w: w.directive_line, reverse=True):
        idx = w.directive_line - 1
        if idx >= len(lines):
            continue
        line = lines[idx]
        m = _directive_at(line, w)
        if m is None:
            continue
        head = line[:m.start()]
        if head.strip() in ("", "//"):
            del lines[idx]  # the directive was the whole line
        else:
            eol = _terminator(line)
            lines[idx] = head.rstrip() + eol
        edits += 1

    # Normalization: purely syntactic, so it is idempotent by construction.
    for idx, line in enumerate(lines):
        m = waivers.DIRECTIVE_RE.search(line)
        if m is None:
            continue
        rule = m.group(1)
        justification = (m.group(2) or "").strip()
        if rule not in waivers.ALL_RULES or rule in waivers.UNWAIVABLE \
                or not justification:
            continue  # bad-waiver territory: needs a human, not a fixer
        canonical = "// fplint: ok({}): {}".format(rule, justification)
        if line[m.start():m.end()] != canonical:
            lines[idx] = line[:m.start()] + canonical + line[m.end():]
            edits += 1

    return "".join(lines), edits


def fix_paths(paths: List[Path],
              cache: "engine.FactCache") -> Tuple[int, int]:
    """Fix every file in place. Returns (files changed, total edits)."""
    files = [(str(p), cache.facts_for(p)) for p in paths]
    global_unordered, method_index = engine.global_indexes(files)

    changed = 0
    total_edits = 0
    for path, (_, facts) in zip(paths, files):
        raw = engine.raw_findings_for(facts, global_unordered, method_index)
        stale = engine.stale_waivers_for(facts, raw)
        text = path.read_text(encoding="utf-8", errors="replace")
        new_text, edits = fix_text(text, stale)
        if edits and new_text != text:
            path.write_text(new_text, encoding="utf-8")
            changed += 1
            total_edits += edits
    return changed, total_edits


def _directive_at(line: str, w: waivers.Waiver) -> "re.Match | None":
    """The directive match on `line` corresponding to waiver `w`."""
    for m in waivers.DIRECTIVE_RE.finditer(line):
        if m.start() == w.match_start and m.group(1) == w.rule:
            return m
    return None


def _terminator(line: str) -> str:
    if line.endswith("\r\n"):
        return "\r\n"
    if line.endswith("\n"):
        return "\n"
    return ""
