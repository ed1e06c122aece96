#!/usr/bin/env python3
"""Unit self-tests for the substrate: lexer and scope tracker.

Runnable under any Python >= 3.8 (the CI self-test job runs it under both
the system interpreter and a pinned 3.8) — everything here is stdlib-only
assertions, no framework.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import lexer  # noqa: E402
import scopes  # noqa: E402

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def toks(src):
    return lexer.tokenize(src)


def texts(src, kind=None):
    return [t.text for t in toks(src)
            if kind is None or t.kind == kind]


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

@check
def lexer_basic_kinds():
    ts = toks("int x = 42; // done\n")
    kinds = [(t.kind, t.text) for t in ts]
    assert (lexer.ID, "int") in kinds
    assert (lexer.ID, "x") in kinds
    assert (lexer.NUM, "42") in kinds
    assert any(k == lexer.COMMENT for k, _ in kinds)


@check
def lexer_maximal_munch():
    ts = texts("a <<= b; c <=> d; e ->* f; g ... h;")
    assert "<<=" in ts and "<=>" in ts and "->*" in ts and "..." in ts


@check
def lexer_string_escapes_and_raw():
    ts = toks(r'auto s = "a\"b"; auto r = R"(x "y" z)";')
    strs = [t.text for t in ts if t.kind == lexer.STR]
    assert len(strs) == 2
    assert strs[1].startswith('R"(') and strs[1].endswith(')"')


@check
def lexer_digit_separators():
    ts = toks("auto t = 1'000'000; auto c = 'x';")
    nums = [t.text for t in ts if t.kind == lexer.NUM]
    assert "1'000'000" in nums
    chrs = [t.text for t in ts if t.kind == lexer.CHR]
    assert "'x'" in chrs


@check
def lexer_block_comment_lines():
    ts = toks("a\n/* one\n   two */\nb\n")
    b = next(t for t in ts if t.text == "b")
    assert b.line == 4


@check
def lexer_pp_tracking():
    ts = toks("#define FOO(x) \\\n  ((x) + 1)\nint y;\n")
    assert all(t.pp for t in ts if t.text in ("FOO", "x", "1"))
    y = next(t for t in ts if t.text == "y")
    assert not y.pp


@check
def lexer_never_raises_on_junk():
    lexer.tokenize("\"unterminated\n'\x00\x01 /* open forever")


@check
def lexer_code_lines_blank_only_comments_and_literals():
    src = ("long n = 1'000; // note\n"
           "auto r = u8R\"(\n"
           "  rand() )\";\n"
           "char c = 'x'; /* a\n"
           "b */ int k;\n")
    code = lexer.code_lines(src, toks(src))
    assert [len(c) for c in code] == [len(r) for r in src.splitlines()]
    assert [c.split() for c in code] == [["long", "n", "=", "1'000;"],
                                         ["auto", "r", "="],
                                         [";"],
                                         ["char", "c", "=", ";"],
                                         ["int", "k;"]]


# ---------------------------------------------------------------------------
# scopes
# ---------------------------------------------------------------------------

def analyze(src):
    return scopes.analyze(toks(src))


@check
def scopes_method_constness():
    fa = analyze(
        "struct C {\n"
        "  int bump();\n"
        "  int peek() const;\n"
        "  int inline_body() const { return 1; }\n"
        "};\n")
    assert fa.method_decls["bump"] == [False]
    assert fa.method_decls["peek"] == [True]
    assert fa.method_decls["inline_body"] == [True]


@check
def scopes_lambda_context_strict():
    fa = analyze(
        "void f(S& sim, S& peer, long d) {\n"
        "  sim.post_remote(peer, d, [&] { });\n"
        "}\n")
    (site,) = fa.lambda_sites
    assert "post_remote" in site.contexts
    assert site.captures[0].mode == "ref-default"


@check
def scopes_lambda_pointer_capture():
    fa = analyze(
        "void f(S& sim, S& peer, long d) {\n"
        "  P* p = nullptr;\n"
        "  P q;\n"
        "  sim.post_remote(peer, d, [p] { });\n"
        "  sim.post_remote(peer, d, [q] { });\n"
        "}\n")
    by_ptr = {site.captures[0].name: site.captures[0].is_pointer
              for site in fa.lambda_sites}
    assert by_ptr == {"p": True, "q": False}


@check
def scopes_wrapper_init_context():
    fa = analyze(
        "void f(S& sim, S& peer, long d) {\n"
        "  sim.post_remote(peer, d, LaneFn{[this] { }});\n"
        "}\n")
    (site,) = fa.lambda_sites
    assert "post_remote" in site.contexts and "LaneFn" in site.contexts
    assert site.captures[0].mode == "this"


@check
def scopes_context_closes_with_paren():
    fa = analyze(
        "void f(S& sim, long d) {\n"
        "  sim.schedule_in(d, [x] { });\n"
        "  auto after = [&] { };\n"
        "}\n")
    assert fa.lambda_sites[0].contexts == ("schedule_in",)
    assert fa.lambda_sites[1].contexts == ()


@check
def scopes_subscript_is_not_lambda():
    fa = analyze("void f() { int a[3]; a[0] = 1; [[maybe_unused]] int b; }\n")
    assert fa.lambda_sites == ()


@check
def scopes_macro_records():
    recs = scopes.macro_arg_records(toks(
        "void f(C& c, int i) {\n"
        "  FP_AUDIT(i++ < 3, \"m\");\n"
        "  assert(c.bump() > 0);\n"
        "  FP_TRACE(sim, k, i == 2);\n"
        "}\n"))
    by_macro = {r.macro: r for r in recs}
    assert [op for _, op in by_macro["FP_AUDIT"].ops] == ["++"]
    assert [nm for _, nm in by_macro["assert"].calls] == ["bump"]
    assert by_macro["FP_TRACE"].ops == ()  # '==' is not an assignment


@check
def scopes_define_body_is_skipped():
    recs = scopes.macro_arg_records(toks(
        "#define WRAP(c) FP_AUDIT((c).bump() > 0, \"m\")\n"
        "int x;\n"))
    assert recs == []


def main() -> int:
    failed = 0
    for fn in CHECKS:
        try:
            fn()
        except AssertionError:
            failed += 1
            import traceback
            print("FAIL {}".format(fn.__name__))
            traceback.print_exc()
    if failed:
        print("selftest: {} of {} checks failed".format(failed, len(CHECKS)))
        return 1
    print("selftest: OK — {} checks on Python {}.{}.{}".format(
        len(CHECKS), *sys.version_info[:3]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
