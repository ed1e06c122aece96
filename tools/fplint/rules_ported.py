"""The twelve line rules.

Each rule is a regex (plus exemptions) matched line by line against the
code view (lexer.code_lines), in which comments and string/char literals
are blanked, so a rule fires only on code. The rule table lists them as
`ported`: they came from the regex pass fplint grew out of.

Rule documentation lives in DESIGN.md ("Correctness tooling") and in the
rule table printed by `python3 tools/fplint --rules`.

Cross-file state: `unordered-iteration` needs the set of identifiers
declared anywhere in the scanned tree as unordered containers, and is
therefore split into a per-file collection half (`unordered_decl_idents`,
`unordered_use_sites`) and a global resolution half the engine performs.
Everything else is file-local (`lint_local`).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple

Finding = Tuple[int, str, str]  # (1-based line, rule id, message)

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\b")
# Identifier of a (possibly member) variable declared with an unordered
# container type: the last identifier on the declaration before ; { or =.
UNORDERED_IDENT_RE = re.compile(
    r"\bstd::unordered_(?:multi)?(?:map|set)\s*<.*>\s+(\w+)\s*(?:;|\{|=)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")
# end() alone is a find()-sentinel comparison; traversal always needs begin().
BEGIN_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*c?r?begin\s*\(")
POINTER_KEY_RE = re.compile(
    r"\bstd::(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+"
    r"(?:\s*<[^<>]*>)?\s*\*")
WALL_CLOCK_RES = [
    (re.compile(r"\bstd::chrono::system_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bstd::chrono::high_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bstd::chrono::steady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.>])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"), "time()"),
    (re.compile(r"(?<![\w.>])clock\s*\(\s*\)"), "clock()"),
]
BANNED_RNG_RES = [
    (re.compile(r"\bstd::s?rand\b"), "std::rand/srand"),
    (re.compile(r"(?<![\w.>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::mt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bstd::minstd_rand0?\b"), "std::minstd_rand"),
    (re.compile(r"\bstd::default_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\bstd::ranlux\w+\b"), "std::ranlux*"),
    (re.compile(r"\bstd::knuth_b\b"), "std::knuth_b"),
    (re.compile(r"\bstd::\w+_distribution\b"), "std::*_distribution"),
]
THREADING_RE = re.compile(
    r"\bstd::(?:thread|jthread|atomic|mutex|async)\b"
    r"|\bcore::(?:Mutex|LockGuard)\b")
# static / thread_local declaration of a MUTABLE object (const/constexpr/
# constinit are fine — immutable statics cannot couple lanes). static_assert
# and static_cast are single words, so \b(static)\b does not match them.
MUTABLE_STATIC_RE = re.compile(
    r"(?:^|[{;]\s*|\s)(?:inline\s+)?"
    r"(?:static\s+thread_local|thread_local\s+static|static|thread_local)\s+"
    r"(?!const\b|constexpr\b|constinit\b|inline\s+const)")
# Keywords that start a column-0 line which is definitely NOT a mutable
# namespace-scope object definition.
NS_GLOBAL_SKIP = {
    "const", "constexpr", "constinit", "static", "inline", "extern", "using",
    "typedef", "class", "struct", "enum", "union", "namespace", "template",
    "friend", "return", "public", "private", "protected", "if", "else", "for",
    "while", "switch", "case", "default", "do", "try", "catch", "goto",
}
# Modules whose public headers have been converted to core:: strong types —
# a raw scalar with an id-like/unit-like name there is a regression.
CONVERTED_MODULES = {
    "core", "net", "flowpulse", "ctrl", "baseline", "exp", "transport",
    "collective", "daemon",
}
# Modules that legitimately talk to the outside world: OS I/O (sockets,
# epoll, fds) and wall clocks are their job, not a determinism leak. The
# simulation core must never join this set.
REALTIME_MODULES = {"daemon"}
OS_IO_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"](?:sys/(?:socket|epoll|eventfd|select|un|uio)\.h'
    r"|netinet/[\w.]+|arpa/inet\.h|poll\.h|fcntl\.h|unistd\.h"
    r'|netdb\.h)[>"]')
RAW_INT_TYPE = (r"(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t"
                r"|unsigned(?:\s+(?:int|long(?:\s+long)?))?"
                r"|(?<!unsigned )int|long(?:\s+long)?)")
RAW_SCALAR_ID_RE = re.compile(
    rf"\b{RAW_INT_TYPE}\s+"
    r"(\w*(?:port|host|leaf|spine|link|bytes)\w*)\s*(?:[;,)={{]|$)")
# Count-like names a raw integer is right for: num_uplinks, retx_count,
# hosts_per_leaf, and plurals (uplinks). *bytes* is never count-like —
# the plural 's' is part of the unit name core::Bytes replaces.
COUNT_LIKE_RE = re.compile(r"^(?:num_|n_)|_count_?$|_per_|^\w*(?<!byte)s_?$")
STRONG_ID_NAMES = r"(?:HostId|LeafId|SpineId|PortId|PortIndex|UplinkIndex|IterIndex|LinkId)"
STRONGID_CAST_RE = re.compile(
    rf"\bstatic_cast\s*<\s*(?:\w+::)*{STRONG_ID_NAMES}\s*>")
FLOAT_DECL_RE = re.compile(r"\b(?:float|double)\s+(\w+)\s*(?:;|=|\{)")
ACCUM_RE = re.compile(r"(?<![\w.>])(\w+)\s*[+\-]\*?=")
# A mutable member that is not a mutex: locking a const object is the one
# sanctioned use of `mutable` (paired with FP_GUARDED_BY, the analysis
# still proves every access locked).
MUTABLE_MEMBER_RE = re.compile(r"^\s*mutable\s+(?!core::Mutex\b|std::mutex\b)")
# The raw-scalar serialization-time math: only its definition may spell it;
# everything else goes through the strong-typed
# core::serialization_time(Bytes, GbitsPerSec).
RAW_SERIALIZATION_RE = re.compile(
    r"\b(?:sim::)?detail::serialization_time\s*\("
    r"|\bsim::serialization_time\s*\(")


def ns_mutable_global(code: str) -> Optional[str]:
    """Identifier of a column-0 namespace-scope mutable object definition.

    Relies on the repo's clang-format style: namespace contents are NOT
    indented, so any column-0 declaration is namespace scope. Multi-line
    declarations and initializer parens are not recognized — the post-build
    nm symbol audit (tools/check_mutable_symbols.cmake) backstops whatever
    this line-level heuristic cannot see.
    """
    if not code or code[0] in " \t}#":
        return None
    line = code.strip()
    if not line.endswith(";"):
        return None
    if line.startswith("inline "):
        line = line[len("inline "):]
    first = re.match(r"[A-Za-z_]\w*", line)
    if not first or first.group(0) in NS_GLOBAL_SKIP:
        return None
    # A '(' before any '=' marks a function declaration/definition, not an
    # object (initializer parens on globals do not occur in this codebase).
    eq = line.find("=")
    paren = line.find("(")
    if paren != -1 and (eq == -1 or paren < eq):
        return None
    head = line[:eq] if eq != -1 else line[:-1]
    head = head.split("{")[0]
    m = re.search(r"(\w+)\s*(?:\[[^\]]*\])?\s*$", head)
    if m is None or m.group(1) == first.group(0):  # lone token: not a decl
        return None
    return m.group(1)


def unordered_decl_idents(code: List[str]) -> List[str]:
    """Identifiers declared in this file as unordered containers."""
    idents: List[str] = []
    for line in code:
        for m in UNORDERED_IDENT_RE.finditer(line):
            idents.append(m.group(1))
    return idents


def unordered_use_sites(code: List[str]) -> List[Tuple[int, str, str]]:
    """Candidate iteration sites: (line, ident, via 'range-for'|'begin').

    Resolved globally by the engine against the tree-wide declared-ident
    set.
    """
    sites: List[Tuple[int, str, str]] = []
    for idx, line in enumerate(code):
        lineno = idx + 1
        for m in RANGE_FOR_RE.finditer(line):
            sites.append((lineno, m.group(1), "range-for"))
        for m in BEGIN_RE.finditer(line):
            sites.append((lineno, m.group(1), "begin"))
    return sites


def unordered_iteration_message(ident: str, via: str) -> str:
    if via == "range-for":
        return ("range-for over '{}', declared as an "
                "unordered container: iteration order is hash order".format(ident))
    return ("begin() on '{}', declared as an "
            "unordered container: iteration order is hash order".format(ident))


def lint_local(path: Path, raw_lines: List[str], code: List[str],
               module: Optional[str]) -> List[Finding]:
    """All file-local ported rules (everything except unordered-iteration).

    Findings are RAW: waiver filtering happens in the engine, so the
    stale-waiver rule can see what each waiver is actually holding back.
    """
    findings: List[Finding] = []
    parallel_file = any(THREADING_RE.search(c) for c in code)
    realtime = module in REALTIME_MODULES
    converted_header = (module in CONVERTED_MODULES
                        and path.suffix in {".h", ".hpp"})
    float_idents = set()
    if parallel_file:
        for c in code:
            for m in FLOAT_DECL_RE.finditer(c):
                float_idents.add(m.group(1))

    for idx, c in enumerate(code):
        lineno = idx + 1

        if UNORDERED_DECL_RE.search(c):
            findings.append((lineno, "unordered",
                             "unordered container in simulation code: hash order can "
                             "leak into results; use std::map/std::set or waive with "
                             "a justification that it is never iterated"))

        if POINTER_KEY_RE.search(c):
            findings.append((lineno, "pointer-key",
                             "container keyed by pointer: pointer order is "
                             "allocation order and varies across runs"))

        if not realtime:
            for pattern, what in WALL_CLOCK_RES:
                if pattern.search(c):
                    findings.append((lineno, "wall-clock",
                                     f"{what}: simulation state must advance only on "
                                     "sim::Time (steady_clock may be waived for "
                                     "reporting-only wall durations)"))

        # Match the raw line (quoted includes are blanked in code), but only
        # on lines that are live preprocessor directives, so a commented-out
        # include does not flag.
        if (not realtime and c.lstrip().startswith("#")
                and OS_IO_INCLUDE_RE.search(raw_lines[idx])):
            findings.append((lineno, "os-io",
                             "OS I/O header outside a realtime module: simulation "
                             "code must never touch sockets/epoll/fds; only "
                             "src/daemon (the flowpulsed transport) may"))

        for pattern, what in BANNED_RNG_RES:
            if pattern.search(c):
                findings.append((lineno, "banned-rng",
                                 f"{what}: all randomness must flow from the seeded "
                                 "sim::Rng"))

        if converted_header:
            for m in RAW_SCALAR_ID_RE.finditer(c):
                name = m.group(1)
                if COUNT_LIKE_RE.search(name):
                    continue
                findings.append((lineno, "raw-scalar-id",
                                 f"raw integer '{name}' in a converted module's "
                                 "public header: use the net::*Id / core:: unit "
                                 "type so mix-ups stay compile errors"))

        if module is not None and module != "core":
            if STRONGID_CAST_RE.search(c):
                findings.append((lineno, "strongid-cast",
                                 "static_cast to a strong id type outside core/: "
                                 "construct at the boundary (e.g. LeafId{raw}) so "
                                 "the id-space crossing is visible"))

        m = MUTABLE_STATIC_RE.search(c)
        if m:
            # The first structural character after the keyword decides what
            # was declared: '(' is a function, anything else is an object.
            structural = re.search(r"[(;={]", c[m.end():])
            if structural and structural.group(0) != "(":
                findings.append((lineno, "mutable-global",
                                 "static/thread_local mutable object: hidden "
                                 "cross-lane (or scheduling-dependent per-lane) "
                                 "state — hoist it into a member or parameter so "
                                 "ownership is explicit"))

        ident = ns_mutable_global(c)
        if ident is not None:
            findings.append((lineno, "mutable-global",
                             f"namespace-scope mutable global '{ident}': shared "
                             "state every lane can reach — hoist it into the object "
                             "that owns the lifetime, or waive with the access "
                             "protocol that keeps it deterministic"))

        if not (module == "sim" and path.name == "time.h"):
            if RAW_SERIALIZATION_RE.search(c):
                findings.append((lineno, "raw-serialization-time",
                                 "raw-scalar serialization-time math outside its "
                                 "definition: call core::serialization_time(Bytes, "
                                 "GbitsPerSec) so byte counts and rates stay "
                                 "strong-typed"))

        if converted_header or (module in CONVERTED_MODULES
                                and path.suffix in {".cc", ".cpp"}):
            if MUTABLE_MEMBER_RE.search(c):
                findings.append((lineno, "mutable-member",
                                 "mutable member in a converted module: mutation "
                                 "behind a const interface hides shared state; "
                                 "waive with why it is per-instance and "
                                 "deterministic (mutable mutexes are exempt)"))

        if parallel_file:
            for m in ACCUM_RE.finditer(c):
                if m.group(1) in float_idents:
                    findings.append((lineno, "par-float-accum",
                                     f"accumulation into float '{m.group(1)}' in a "
                                     "threaded file: float addition is not "
                                     "associative, merge order must be serial and "
                                     "deterministic"))

    return findings
