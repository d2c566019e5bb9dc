"""Tokenizer for `.campl` source text.

Plain UTF-8 with `--` line comments.  Indentation is significant, so the
tokens carry 1-based line/column positions and the parser applies the
offside rule from them.  Tabs are rejected outright; only spaces may
shape the layout.

The source is scanned line by line, with one `findall` per line that
yields each token with the blanks before it; no literal or comment spans
a line.  A line those pairs do not cover goes to `_lex_error`.
"""

from __future__ import annotations

import re
import sys

from .model import Pos

KEYWORDS = frozenset({
    "proc", "protocol", "coprotocol", "do", "on", "of", "as", "into",
    "put", "get", "hput", "hcase", "close", "halt", "fork", "split",
    "plug", "race", "use", "store", "neg",
})

KW = "kw"
IDENT = "ident"
INT = "int"
STRING = "string"
CHARLIT = "char"
OP = "op"
EOF = "eof"


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)


# A string literal up to its closing quote: no tab, and only the escapes
# in `_ESCAPES`.
_STRING_BODY = r'"(?:[^"\\\t]|\\[n"\'\\])*'

# Leading blanks, then one token.  Names and operators, the commonest, are
# tried first; no name or operator starts with `--` or a digit, so they
# never take a comment's or an int's place.  Comments come before ints so
# that `--` starts a comment, and each operator before its prefixes.  Only
# well-formed string and character literals match.  The digit and word
# classes are ASCII only.
_TOKEN = re.compile(r"""
    ([ ]*)
    ( [A-Za-z_][A-Za-z0-9_]*
    | \(\*\)|\(\+\)|\|=\||->|=>|::|[()|=\[\],]
    | --.*
    | -?[0-9]+
    | %s"
    | '(?:[^\\]|\\[n"'\\])'
    )
""" % _STRING_BODY, re.VERBOSE)

# A token's kind: the keywords and operators by their text, the rest by
# their first character.  A `-` not in `->` starts an int or a comment.
_KIND = {k: KW for k in KEYWORDS}
_KIND.update({op: OP for op in ("(*)", "(+)", "|=|", "->", "=>", "::", "(",
                                ")", "|", "=", "[", "]", ",")})
_FIRST = {c: IDENT for c in
          "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"}
_FIRST.update({c: INT for c in "-0123456789"})
_FIRST.update({'"': STRING, "'": CHARLIT})

_ESCAPES = {"n": "\n", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)")


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m[1]]


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """Tokenize `source`, discarding comments, into `(kind, text, line,
    col)` tuples with 1-based line and column; a literal's text is its
    value.  The last token is `(EOF, "", last line, 0)`.  Raises LexError
    with a position for tabs, bad or unterminated literals, and stray
    characters."""
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    toks: list[tuple[str, str, int, int]] = []
    append = toks.append
    findall = _TOKEN.findall
    fixed_kind = _KIND.get
    first = _FIRST
    intern = sys.intern
    for line, text in enumerate(lines, 1):
        col = 1
        for blanks, tok in findall(text):
            col += len(blanks)
            kind = fixed_kind(tok) or first[tok[0]]
            if kind is STRING or kind is CHARLIT:
                # The value, unquoted.
                value = tok[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(_unescape, value)
                append((kind, value, line, col))
            elif kind is INT and tok[:2] == "--":
                # A comment runs to the line's end, so the pairs cover the
                # line when it ends at the line's last column.
                if col + len(tok) != len(text) + 1:
                    raise _lex_error(text, line)
                break
            else:
                # Interned, so a name or operator repeated across the
                # source and the AST built from it is one string object.
                append((kind, intern(tok), line, col))
            col += len(tok)
        else:
            # With no comment, the pairs cover the line when they reach
            # its trailing blanks.
            if col != len(text) + 1 and text[col - 1:].strip(" "):
                raise _lex_error(text, line)
    append((EOF, "", len(lines), 0))
    return toks


def _lex_error(text: str, line: int) -> LexError:
    """The error of line `line`, `text`, which the token pairs do not
    cover: at the first place, after blanks, where no token matches."""
    i = 0
    while m := _TOKEN.match(text, i):
        i = m.end()
    i = len(text) - len(text[i:].lstrip(" "))
    c = text[i]
    if c == '"':
        # The literal's body stops at a tab, a bad escape or the line's end.
        j = re.compile(_STRING_BODY).match(text, i).end()
        if j == len(text):
            return LexError("unterminated string literal", line, i + 1)
        i, c = j, text[j]
        if c == "\\":
            return LexError("bad escape in string literal", line, i + 1)
    if c == "'":
        if text[i + 1:i + 2] == "\\" and text[i + 2:i + 3] not in _ESCAPES:
            return LexError("bad escape in character literal", line, i + 2)
        return LexError("unterminated character literal", line, i + 1)
    if c == "\t":
        return LexError("tab character; indent with spaces", line, i + 1)
    if c == ":":
        return LexError("expected '::'", line, i + 1)
    return LexError(f"unexpected character {c!r}", line, i + 1)
