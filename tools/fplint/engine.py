"""fplint engine: per-file fact extraction, cache, cross-TU resolution.

The pipeline is two-phase, with a cacheable seam between the phases:

  1. `analyze_file` turns one file into `FileFacts` — a pure function of
     the file's bytes. It tokenizes the file once; the scope-aware rules
     read the tokens, and the line rules, the include scanner and the
     waiver scanner read the code view built from the same tokens
     (lexer.code_lines). The facts are the raw findings from every
     file-local rule, plus the cross-TU raw material: unordered-container
     idents/use-sites, method const-ness declarations, macro-argument
     call sites, waivers. Facts are pickled per tree into a single cache
     file keyed on (mtime_ns, size, CACHE_VERSION), which is what makes
     warm incremental runs sub-second: an unchanged file costs one stat.

  2. `resolve` merges the per-file facts into the tree-wide indexes
     (unordered idents, method const-ness), materializes the global
     rules, applies waivers, and computes stale-waiver LAST — from the
     raw pre-waiver finding set, so a waiver is stale exactly when the
     rule it names does not fire on the line it targets.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import lexer
import rules_ported
import rules_scoped
import scopes
import waivers

# Bump whenever tokenization, fact extraction, or any rule changes, so
# stale caches self-invalidate.
CACHE_VERSION = 2

Finding = Tuple[int, str, str]  # (1-based line, rule id, message)


class FileFacts(NamedTuple):
    module: Optional[str]
    raw_local: List[Finding]                      # file-local line rules
    unordered_idents: List[str]                   # declared in this file
    unordered_sites: List[Tuple[int, str, str]]   # (line, ident, via)
    method_decls: Dict[str, List[bool]]           # name -> const flags seen
    macro_ops: List[Finding]                      # variant-divergence, local
    macro_calls: List[Tuple[int, str, str]]       # (line, macro, method)
    lane_findings: List[Finding]
    layer_findings: List[Finding]
    waivers: List[waivers.Waiver]
    waiver_errors: List[Finding]


def analyze_file(path: Path) -> FileFacts:
    """Extract every cacheable fact from one file (no cross-TU state)."""
    text = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = text.splitlines()
    toks = lexer.tokenize(text)
    code = lexer.code_lines(text, toks)
    module = waivers.module_of(path)

    raw_local = rules_ported.lint_local(path, raw_lines, code, module)
    u_idents = rules_ported.unordered_decl_idents(code)
    u_sites = rules_ported.unordered_use_sites(code)

    analysis = scopes.analyze(toks)
    records = scopes.macro_arg_records(toks)
    includes = rules_scoped.quoted_includes(raw_lines, code)
    scan = waivers.scan_waivers(raw_lines, code)

    return FileFacts(
        module=module,
        raw_local=raw_local,
        unordered_idents=u_idents,
        unordered_sites=u_sites,
        method_decls=analysis.method_decls,
        macro_ops=rules_scoped.variant_local_findings(records),
        macro_calls=rules_scoped.variant_call_sites(records),
        lane_findings=rules_scoped.lane_capture_findings(
            list(analysis.lambda_sites)),
        layer_findings=rules_scoped.layering_findings(module, includes),
        waivers=scan.waivers,
        waiver_errors=scan.errors,
    )


# ---------------------------------------------------------------------------
# fact cache
# ---------------------------------------------------------------------------

class FactCache:
    """One pickle file mapping abs path -> (mtime_ns, size, FileFacts)."""

    def __init__(self, cache_file: Optional[Path]):
        self.cache_file = cache_file
        self.hits = 0
        self.misses = 0
        self._data: Dict[str, Tuple[int, int, FileFacts]] = {}
        self._dirty = False
        if cache_file is not None and cache_file.exists():
            try:
                with cache_file.open("rb") as fh:
                    payload = pickle.load(fh)
                if payload.get("version") == CACHE_VERSION:
                    self._data = payload["files"]
            except Exception:
                self._data = {}  # unreadable/corrupt cache: rebuild

    def facts_for(self, path: Path) -> FileFacts:
        key = str(path.resolve())
        try:
            st = path.stat()
            stamp = (st.st_mtime_ns, st.st_size)
        except OSError:
            stamp = None
        if stamp is not None and key in self._data:
            mt, sz, facts = self._data[key]
            if (mt, sz) == stamp:
                self.hits += 1
                return facts
        facts = analyze_file(path)
        self.misses += 1
        if stamp is not None:
            self._data[key] = (stamp[0], stamp[1], facts)
            self._dirty = True
        return facts

    def save(self) -> None:
        if self.cache_file is None or not self._dirty:
            return
        try:
            self.cache_file.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.cache_file.with_suffix(".tmp.{}".format(os.getpid()))
            with tmp.open("wb") as fh:
                pickle.dump({"version": CACHE_VERSION, "files": self._data},
                            fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(str(tmp), str(self.cache_file))
        except OSError:
            pass  # caching is best-effort; never fail the lint over it


# ---------------------------------------------------------------------------
# cross-TU resolution
# ---------------------------------------------------------------------------

def global_indexes(files: List[Tuple[str, FileFacts]]
                   ) -> Tuple[Set[str], Dict[str, bool]]:
    """The two cross-TU indexes: unordered idents, method const-ness."""
    global_unordered: Set[str] = set()
    method_index: Dict[str, bool] = {}  # name -> any const decl seen
    for _, facts in files:
        global_unordered.update(facts.unordered_idents)
        for name, flags in facts.method_decls.items():
            method_index[name] = method_index.get(name, False) or any(flags)
    return global_unordered, method_index


def raw_findings_for(facts: FileFacts, global_unordered: Set[str],
                     method_index: Dict[str, bool]) -> List[Finding]:
    """One file's pre-waiver finding set, global rules resolved."""
    raw: List[Finding] = list(facts.raw_local)
    for line, ident, via in facts.unordered_sites:
        if ident in global_unordered:
            raw.append((line, "unordered-iteration",
                        rules_ported.unordered_iteration_message(ident, via)))
    raw.extend(facts.lane_findings)
    raw.extend(facts.layer_findings)
    raw.extend(facts.macro_ops)
    raw.extend(rules_scoped.resolve_variant_calls(
        facts.macro_calls, method_index))
    return raw


def stale_waivers_for(facts: FileFacts,
                      raw: List[Finding]) -> List[waivers.Waiver]:
    """Waivers whose rule does not fire on the line they target."""
    fired = {(line, rule) for line, rule, _ in raw}
    return [w for w in facts.waivers
            if w.target_line < 0 or (w.target_line, w.rule) not in fired]


def resolve(files: List[Tuple[str, FileFacts]]
            ) -> List[Tuple[str, List[Finding]]]:
    """Merge per-file facts into final, waiver-filtered findings per file."""
    global_unordered, method_index = global_indexes(files)

    out: List[Tuple[str, List[Finding]]] = []
    for disp, facts in files:
        raw = raw_findings_for(facts, global_unordered, method_index)
        wmap = waivers.waiver_map(facts.waivers)
        findings = list(facts.waiver_errors)
        findings.extend(f for f in raw if f[1] not in wmap.get(f[0], {}))

        for w in stale_waivers_for(facts, raw):
            if w.target_line < 0:
                findings.append(
                    (w.directive_line, "stale-waiver",
                     "waiver for '{}' never attaches to a code line "
                     "(nothing but blank lines or EOF follows it) — "
                     "remove it".format(w.rule)))
            else:
                findings.append(
                    (w.directive_line, "stale-waiver",
                     "waiver for '{}' on a line where the rule does not "
                     "fire — the code moved on; remove the waiver "
                     "(`fplint --fix` does this)".format(w.rule)))
        out.append((disp, sorted(findings)))
    return out


def run(paths: List[Path],
        cache: FactCache) -> List[Tuple[str, List[Finding]]]:
    files = [(str(p), cache.facts_for(p)) for p in paths]
    results = resolve(files)
    cache.save()
    return results


def render_text(results: List[Tuple[str, List[Finding]]]
                ) -> Tuple[str, int]:
    """The text report. Returns (text, finding count)."""
    lines: List[str] = []
    count = 0
    for disp, findings in results:
        for lineno, rule, message in findings:
            lines.append("{}:{}: error[{}]: {}".format(
                disp, lineno, rule, message))
            count += 1
    if count:
        lines.append("fplint: {} error(s) in {} file(s)".format(
            count, len(results)))
    else:
        lines.append("fplint: clean ({} files)".format(len(results)))
    return "\n".join(lines), count
