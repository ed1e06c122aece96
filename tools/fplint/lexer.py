"""The C++ tokenizer fplint reads every file with.

Produces a flat token stream with source positions. It understands the
lexical forms that break line regexes:

  * raw string literals  R"delim( ... )delim"  (any prefix: u8R, LR, ...)
  * digit separators     1'000'000  (not a char literal)
  * multi-line block comments and line-spliced line comments
  * preprocessor lines, including backslash continuations — their tokens
    are flagged `pp=True` so semantic rules can skip macro definitions
  * maximal-munch punctuators (<<=, <=>, ->*, ...)

The stream keeps comments as tokens and never raises: unterminated
literals degrade to a token running to end of file, because a linter
must keep going on code a compiler would reject.

`code_lines` turns the stream back into the line view the line rules,
the include scanner and the waiver scanner read: the source with every
comment and literal blanked out.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

# Token kinds.
ID = "id"          # identifiers and keywords
NUM = "num"        # pp-number (includes digit separators, suffixes, 0x..)
STR = "str"        # string literal, including raw strings, with prefix
CHR = "chr"        # character literal, with prefix
PUNCT = "punct"    # operator / punctuator, maximal munch
COMMENT = "comment"  # // ... or /* ... */ (kept for completeness)


class Token(NamedTuple):
    kind: str
    text: str
    line: int   # 1-based line of the token's first character
    col: int    # 0-based column of the token's first character
    pp: bool    # True if the token is part of a preprocessor directive


# Longest-first so maximal munch falls out of ordered matching.
_PUNCTUATORS = [
    "<<=", ">>=", "<=>", "->*", "...",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "=", "<", ">",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}", "#", "\\",
]

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")

# Literal prefixes that may precede " or ' (longest first).
_LITERAL_PREFIXES = ("u8R", "uR", "UR", "LR", "R", "u8", "u", "U", "L")


def tokenize(text: str) -> List[Token]:
    """Tokenize C++ source text into a list of Tokens."""
    toks: List[Token] = []
    i = 0
    n = len(text)
    line = 1
    col = 0
    in_pp = False       # inside a preprocessor directive (incl. continuations)
    at_line_start = True  # only whitespace seen so far on this physical line

    def advance_over(s: str) -> None:
        nonlocal line, col
        for ch in s:
            if ch == "\n":
                line += 1
                col = 0
            else:
                col += 1

    while i < n:
        c = text[i]

        # -- newline bookkeeping ------------------------------------------
        if c == "\n":
            if in_pp:
                # A backslash immediately before the newline continues the
                # directive (the backslash itself was consumed as a PUNCT
                # token below; simpler: peek backwards over whitespace).
                j = i - 1
                while j >= 0 and text[j] in " \t\r":
                    j -= 1
                if j < 0 or text[j] != "\\":
                    in_pp = False
            line += 1
            col = 0
            i += 1
            at_line_start = True
            continue

        if c in " \t\r\f\v":
            col += 1
            i += 1
            continue

        start_line, start_col = line, col

        # -- comments ------------------------------------------------------
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                if j == -1:
                    j = n
                # Line splice inside a // comment extends it.
                while j < n and text[j - 1] == "\\":
                    k = text.find("\n", j + 1)
                    j = n if k == -1 else k
                tok_text = text[i:j]
                toks.append(Token(COMMENT, tok_text, start_line, start_col, in_pp))
                advance_over(tok_text)
                i = j
                at_line_start = False
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                j = n if j == -1 else j + 2
                tok_text = text[i:j]
                toks.append(Token(COMMENT, tok_text, start_line, start_col, in_pp))
                advance_over(tok_text)
                i = j
                at_line_start = False
                continue

        # -- preprocessor start -------------------------------------------
        if c == "#" and at_line_start:
            in_pp = True
            # fall through: '#' is emitted as a punct token flagged pp

        # -- identifiers / literal prefixes -------------------------------
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            # String/char literal with a prefix? Only if the *entire* word
            # is a known prefix and a quote follows.
            if j < n and text[j] in "\"'" and word in _LITERAL_PREFIXES:
                lit, end = _scan_literal(text, i, j)
                kind = STR if text[j] == '"' else CHR
                toks.append(Token(kind, lit, start_line, start_col, in_pp))
                advance_over(lit)
                i = end
                at_line_start = False
                continue
            toks.append(Token(ID, word, start_line, start_col, in_pp))
            col += j - i
            i = j
            at_line_start = False
            continue

        # -- numbers (pp-number: digits, idents, ', and . with exponents) --
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n:
                ch = text[j]
                if ch in _IDENT_CONT or ch == ".":
                    j += 1
                elif ch == "'" and j + 1 < n and text[j + 1] in _IDENT_CONT:
                    j += 2  # digit separator
                elif ch in "+-" and text[j - 1] in "eEpP":
                    j += 1  # exponent sign
                else:
                    break
            toks.append(Token(NUM, text[i:j], start_line, start_col, in_pp))
            col += j - i
            i = j
            at_line_start = False
            continue

        # -- plain string / char literals ---------------------------------
        if c in "\"'":
            lit, end = _scan_literal(text, i, i)
            kind = STR if c == '"' else CHR
            toks.append(Token(kind, lit, start_line, start_col, in_pp))
            advance_over(lit)
            i = end
            at_line_start = False
            continue

        # -- punctuators ---------------------------------------------------
        for p in _PUNCTUATORS:
            if text.startswith(p, i):
                toks.append(Token(PUNCT, p, start_line, start_col, in_pp))
                col += len(p)
                i += len(p)
                break
        else:
            # Unknown byte: emit as a one-char punct so positions stay sane.
            toks.append(Token(PUNCT, c, start_line, start_col, in_pp))
            col += 1
            i += 1
        at_line_start = False

    return toks


def _scan_literal(text: str, start: int, quote_pos: int) -> "tuple[str, int]":
    """Scan a string/char literal starting at `start` (prefix included);
    the quote character sits at `quote_pos`. Returns (literal_text, end).
    """
    n = len(text)
    quote = text[quote_pos]
    prefix = text[start:quote_pos]
    if quote == '"' and prefix.endswith("R"):
        # Raw string: R"delim( ... )delim"
        j = quote_pos + 1
        k = text.find("(", j)
        if k == -1:
            return text[start:], n
        delim = text[j:k]
        close = ")" + delim + '"'
        e = text.find(close, k + 1)
        if e == -1:
            return text[start:], n
        return text[start:e + len(close)], e + len(close)
    # Ordinary literal with backslash escapes; stops at unescaped newline
    # (ill-formed input — degrade to one-line token).
    j = quote_pos + 1
    while j < n:
        ch = text[j]
        if ch == "\\":
            j += 2
            continue
        if ch == quote:
            return text[start:j + 1], j + 1
        if ch == "\n":
            return text[start:j], j
        j += 1
    return text[start:], n


# Blanked in the code view: what a line rule must never match inside.
_BLANKED = frozenset({COMMENT, STR, CHR})
# Every character str.splitlines() breaks on; blanking keeps them, so the
# view has exactly the lines of the source.
_NOT_LINE_BREAK = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def code_lines(text: str, toks: List[Token]) -> List[str]:
    """`text.splitlines()` with every comment, string and character literal
    token (prefix included) blanked to spaces, so each line keeps its
    length and columns match the source."""
    line_starts = [0]
    nl = text.find("\n")
    while nl != -1:
        line_starts.append(nl + 1)
        nl = text.find("\n", nl + 1)
    pieces: List[str] = []
    pos = 0
    for tok in toks:
        if tok.kind in _BLANKED:
            start = line_starts[tok.line - 1] + tok.col
            pieces.append(text[pos:start])
            pieces.append(_NOT_LINE_BREAK.sub(" ", tok.text))
            pos = start + len(tok.text)
    pieces.append(text[pos:])
    return "".join(pieces).splitlines()
