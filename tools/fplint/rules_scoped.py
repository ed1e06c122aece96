"""The four scope-aware rules only the tokenizer substrate can express.

  lane-capture        lambdas handed to another lane (or deferred) must
                      not capture by reference or smuggle pointers
  variant-divergence  FP_AUDIT / FP_TRACE / assert argument expressions
                      must be side-effect-free across builds and runs
  layering            the module include DAG is enforced
  stale-waiver        (engine.py — needs the resolved finding set)

Each function returns raw findings as (line, rule, message) tuples; the
engine applies waivers and cross-TU resolution.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from scopes import (CROSS_LANE_CALLEES, DEFERRED_CALLEES, CALLABLE_WRAPPERS,
                    LambdaSite, MacroRecord)

Finding = Tuple[int, str, str]

# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------
# The module DAG, as ranks. An include from module A of module B is legal
# iff rank[B] < rank[A] (strictly below) or A == B. Lateral includes
# between same-rank modules (ctrl <-> baseline <-> obs) are forbidden:
# the rank-6 modules are independent consumers of flowpulse, not a layer
# that may entangle itself.
MODULE_RANK: Dict[str, int] = {
    "core": 0,
    "sim": 1,
    "net": 2,
    "transport": 3,
    "collective": 4,
    "flowpulse": 5,
    "ctrl": 6,
    "baseline": 6,
    "obs": 6,
    "exp": 7,
    "daemon": 8,
}

_DAG_TEXT = ("core < sim < net < transport < collective < flowpulse < "
             "{ctrl, baseline, obs} < exp < daemon")

# Live quoted include on a preprocessor line. Matched against the raw
# line but gated on the code view starting with '#', so a
# commented-out include does not flag (same discipline as the os-io rule).
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def quoted_includes(raw_lines: List[str],
                    code: List[str]) -> List[Tuple[int, str]]:
    """(1-based line, target) for every live quoted #include."""
    out: List[Tuple[int, str]] = []
    for idx, raw in enumerate(raw_lines):
        if not code[idx].lstrip().startswith("#"):
            continue
        m = INCLUDE_RE.match(raw)
        if m:
            out.append((idx + 1, m.group(1)))
    return out


def layering_findings(module: Optional[str],
                      includes: List[Tuple[int, str]]) -> List[Finding]:
    if module is None or module not in MODULE_RANK:
        return []  # outside src/ (tests, tools) the DAG does not apply
    rank = MODULE_RANK[module]
    findings: List[Finding] = []
    for line, target in includes:
        if "/" not in target:
            continue  # same-directory relative include
        tmod = target.split("/", 1)[0]
        if tmod == module:
            continue
        trank = MODULE_RANK.get(tmod)
        if trank is None:
            findings.append(
                (line, "layering",
                 "include of \"{}\": '{}' is not a module in the layering "
                 "DAG ({})".format(target, tmod, _DAG_TEXT)))
        elif trank >= rank:
            findings.append(
                (line, "layering",
                 "include of \"{}\" from module '{}': '{}' is layered at or "
                 "above '{}' in the module DAG ({}) — depend downward only, "
                 "or move the shared piece into a lower layer".format(
                     target, module, tmod, module, _DAG_TEXT)))
    return findings


# ---------------------------------------------------------------------------
# lane-capture
# ---------------------------------------------------------------------------

def lane_capture_findings(lambda_sites: List[LambdaSite]) -> List[Finding]:
    """Reference/pointer captures in deferred or cross-lane callables.

    Two strictness tiers:
      * post_remote() (cross-lane): no by-reference captures, no `this`,
        and no by-value capture of a pointer — the destination lane would
        dereference source-lane state concurrently with the source lane.
      * schedule()/schedule_in()/schedule_at()/InlineFn/LaneFn/EventFn
        (same-lane, deferred): by-reference captures only — the callable
        outlives the enclosing scope, so stack references dangle, but
        same-lane pointers are fine (no concurrency).
    """
    findings: List[Finding] = []
    for site in lambda_sites:
        strict_ctx = next(
            (c for c in site.contexts if c in CROSS_LANE_CALLEES), None)
        deferred_ctx = next(
            (c for c in site.contexts
             if c in DEFERRED_CALLEES or c in CALLABLE_WRAPPERS), None)
        if strict_ctx is None and deferred_ctx is None:
            continue
        ctx = strict_ctx or deferred_ctx
        for cap in site.captures:
            if cap.mode == "ref-default":
                findings.append(
                    (cap.line, "lane-capture",
                     "lambda handed to {}() uses the by-reference default "
                     "capture '[&]': the callable runs after this scope is "
                     "gone{} — capture what it needs by value".format(
                         ctx, " and on another lane" if strict_ctx else "")))
            elif cap.mode in ("ref", "init-ref"):
                findings.append(
                    (cap.line, "lane-capture",
                     "lambda handed to {}() captures '{}' by reference: the "
                     "callable runs after this scope is gone{} — capture it "
                     "by value".format(
                         ctx, cap.name,
                         " and on another lane" if strict_ctx else "")))
            elif strict_ctx is not None and cap.mode == "this":
                findings.append(
                    (cap.line, "lane-capture",
                     "lambda posted cross-lane via {}() captures 'this': the "
                     "destination lane would touch state owned by the source "
                     "lane — capture the needed values, or waive with the "
                     "ownership argument (e.g. the pointee is owned by the "
                     "destination lane)".format(strict_ctx)))
            elif (strict_ctx is not None
                    and cap.mode in ("val", "init-val") and cap.is_pointer):
                findings.append(
                    (cap.line, "lane-capture",
                     "lambda posted cross-lane via {}() captures pointer "
                     "'{}' by value: the pointee stays with the source lane "
                     "— copy the data, or waive with the ownership argument "
                     "(e.g. the pointee is owned by the destination "
                     "lane)".format(strict_ctx, cap.name)))
    return findings


# ---------------------------------------------------------------------------
# variant-divergence
# ---------------------------------------------------------------------------

def variant_local_findings(records: List[MacroRecord]) -> List[Finding]:
    """Mutation operators inside FP_AUDIT/FP_TRACE/assert arguments."""
    findings: List[Finding] = []
    for rec in records:
        for line, op in rec.ops:
            findings.append(
                (line, "variant-divergence",
                 "argument of {}() mutates state ('{}'): the expression "
                 "is not evaluated {}, so the runs would diverge — "
                 "hoist the side effect out of the macro".format(
                     rec.macro, op, _variant_knob(rec.macro))))
    return findings


def variant_call_sites(records: List[MacroRecord]) -> List[Tuple[int, str, str]]:
    """(line, macro, method) calls needing cross-TU const resolution."""
    return [(line, rec.macro, name)
            for rec in records for line, name in rec.calls]


def resolve_variant_calls(call_sites: List[Tuple[int, str, str]],
                          method_index: Dict[str, bool]) -> List[Finding]:
    """Flag method calls in macro args that resolve to a non-const method.

    method_index maps method name -> True if ANY declaration anywhere in
    the tree is const-qualified. A name that does not resolve (std::,
    third-party) is assumed const: the rule is for our own accessors that
    quietly mutate. Bias: uncertainty produces no finding.
    """
    findings: List[Finding] = []
    for line, macro, name in call_sites:
        if name in method_index and not method_index[name]:
            findings.append(
                (line, "variant-divergence",
                 "argument of {}() calls '{}()', which only resolves to "
                 "non-const declarations in this tree: the call vanishes "
                 "{} — use a const accessor or hoist the call".format(
                     macro, name, _variant_knob(macro))))
    return findings


def _variant_knob(macro: str) -> str:
    """The condition under which the macro's argument is not evaluated."""
    return {"assert": "when NDEBUG is defined",
            "FP_AUDIT": "when FLOWPULSE_AUDIT is off",
            "FP_TRACE": "when no trace sink records its event kind"}.get(
                macro, "in some build variants")
