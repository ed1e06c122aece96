"""The rule catalogue, the waiver scanner, and the files fplint reads.

Waivers
-------
A finding is waived by a justified comment on the same line or on the
comment block immediately above:

    // fplint: ok(<rule>): <non-empty justification>

An unknown rule id or an empty justification is itself an error, and so
is waiving the meta-rules (stale-waiver, bad-waiver) — waiver debt must
not be able to hide itself. The scanner reads the code view
(lexer.code_lines) to tell a code line from a comment-only one.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

# The twelve line rules (rules_ported.py), all waivable.
PORTED_RULES = frozenset({
    "unordered",
    "unordered-iteration",
    "pointer-key",
    "wall-clock",
    "banned-rng",
    "par-float-accum",
    "raw-scalar-id",
    "strongid-cast",
    "os-io",
    "mutable-global",
    "mutable-member",
    "raw-serialization-time",
})

# Scope-aware rules (waivable except the meta rule).
SCOPED_RULES = frozenset({
    "lane-capture",
    "variant-divergence",
    "layering",
    "stale-waiver",
})

ALL_RULES = PORTED_RULES | SCOPED_RULES

# Rules that may never be waived: they exist to stop waiver debt from
# accumulating silently, so a waiver against them is self-defeating.
UNWAIVABLE = frozenset({"stale-waiver"})

DIRECTIVE_RE = re.compile(r"//\s*fplint:\s*ok\(([\w-]+)\)\s*:?\s*(.*\S)?")

SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}


class Waiver(NamedTuple):
    directive_line: int    # 1-based line holding the `ok(...)` comment
    target_line: int       # 1-based code line the waiver applies to
    rule: str
    justification: str
    match_start: int       # column of the directive match on its raw line


class WaiverScan(NamedTuple):
    waivers: List[Waiver]
    # bad-waiver findings discovered during the scan: (line, rule, message)
    errors: List[Tuple[int, str, str]]


def scan_waivers(raw_lines: List[str], code: List[str]) -> WaiverScan:
    """Collect every waiver and attach it to the code line it covers.

    A same-line waiver applies to its own line; a waiver on a
    comment-only line applies to the next code line; a blank line
    detaches a pending waiver.
    """
    waivers: List[Waiver] = []
    errors: List[Tuple[int, str, str]] = []
    pending: List[Waiver] = []
    for idx, raw in enumerate(raw_lines):
        lineno = idx + 1
        m = DIRECTIVE_RE.search(raw)
        code_text = code[idx].strip()
        if m:
            rule = m.group(1)
            justification = (m.group(2) or "").strip()
            if rule not in ALL_RULES:
                errors.append(
                    (lineno, "bad-waiver",
                     "unknown fplint rule '{}' in waiver".format(rule)))
            elif rule in UNWAIVABLE:
                errors.append(
                    (lineno, "bad-waiver",
                     "'{}' may not be waived: the rule exists so waiver "
                     "debt cannot hide itself".format(rule)))
            elif not justification:
                errors.append(
                    (lineno, "bad-waiver",
                     "waiver for '{}' has no justification".format(rule)))
            elif code_text:  # same-line waiver
                waivers.append(Waiver(lineno, lineno, rule, justification,
                                      m.start()))
            else:            # comment-block waiver: applies to next code line
                pending.append(Waiver(lineno, -1, rule, justification,
                                      m.start()))
        elif code_text:
            if pending:
                waivers.extend(w._replace(target_line=lineno) for w in pending)
                pending = []
        elif not raw.strip():
            pending = []  # blank line detaches a pending waiver
    # Pending waivers at EOF never attach; keep them so the stale-waiver
    # rule reports them (their rule fires on no line).
    waivers.extend(pending)
    return WaiverScan(waivers, errors)


def waiver_map(waivers: List[Waiver]) -> Dict[int, Dict[str, str]]:
    """target line -> {rule: justification}."""
    out: Dict[int, Dict[str, str]] = {}
    for w in waivers:
        if w.target_line > 0:
            out.setdefault(w.target_line, {})[w.rule] = w.justification
    return out


def module_of(path: Path) -> Optional[str]:
    """The src/<module>/ a file lives in, or None outside src/."""
    parts = path.parts
    for i, part in enumerate(parts[:-1]):
        if part == "src":
            return parts[i + 1] if parts[i + 1] != path.name else None
    return None


def collect_paths(args: List[str]) -> "tuple[List[Path], Optional[str]]":
    """Dirs recurse (sorted), files pass through.

    Returns (paths, error_message). error_message is non-None on a
    missing path (exit status 2).
    """
    paths: List[Path] = []
    for arg in args:
        p = Path(arg)
        if p.is_dir():
            paths.extend(sorted(q for q in p.rglob("*")
                                if q.suffix in SUFFIXES))
        elif p.is_file():
            paths.append(p)
        else:
            return [], "no such path: {}".format(p)
    return paths, None
