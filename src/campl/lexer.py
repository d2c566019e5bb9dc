"""Tokenizer for `.campl` source text.

Plain UTF-8 with `--` line comments.  Indentation is significant, so the
tokens carry 1-based line/column positions and the parser applies the
offside rule from them.  Tabs are rejected outright; only spaces may
shape the layout.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

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


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)


# One group per token class, named by its token kind, tried in order:
# comments before ints so that `--` starts a comment, and each operator
# before its prefixes.  The digit and word classes are ASCII only.
_TOKEN = re.compile(r"""
    (?P<blank>[ ]+|--[^\n]*)
  | (?P<newline>\n)
  | (?P<int>-?[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\(\*\)|\(\+\)|\|=\||->|=>|::|[()|=\[\],])
""", re.VERBOSE)


def tokenize(source: str) -> list[Token]:
    """Tokenize `source`, discarding comments.  Raises LexError with a
    position for tabs, unterminated literals, and stray characters."""
    src = source.replace("\r\n", "\n").replace("\r", "\n")
    toks: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(src)
    while i < n:
        col = i - line_start + 1
        m = _TOKEN.match(src, i)
        if m is None:
            c = src[i]
            if c == '"':
                value, i = _scan_string(src, i, line, col)
                toks.append(Token(STRING, value, line, col))
            elif c == "'":
                value, i = _scan_char(src, i, line, col)
                toks.append(Token(CHARLIT, value, line, col))
            elif c == "\t":
                raise LexError("tab character; indent with spaces", line, col)
            elif c == ":":
                raise LexError("expected '::'", line, col)
            else:
                raise LexError(f"unexpected character {c!r}", line, col)
            continue
        kind = m.lastgroup
        i = m.end()
        if kind == "newline":
            line += 1
            line_start = i
        elif kind != "blank":
            # Interned, so a name or operator repeated across the source
            # and the AST built from it is one string object.
            text = sys.intern(m.group())
            if kind == IDENT and text in KEYWORDS:
                kind = KW
            toks.append(Token(kind, text, line, col))
    toks.append(Token(EOF, "", line, 0))
    return toks


_ESCAPES = {"n": "\n", '"': '"', "'": "'", "\\": "\\"}


def _scan_string(src: str, i: int, line: int, col: int):
    """Scan the string literal whose quote is at `src[i]`, column `col`;
    returns its value and the index past the closing quote."""
    n = len(src)
    j = i + 1
    out: list[str] = []
    while j < n:
        c = src[j]
        if c == "\n":
            break
        if c == "\t":
            raise LexError("tab character; indent with spaces", line,
                           col + j - i)
        if c == "\\":
            if j + 1 >= n or src[j + 1] not in _ESCAPES:
                raise LexError("bad escape in string literal", line,
                               col + j - i)
            out.append(_ESCAPES[src[j + 1]])
            j += 2
            continue
        if c == '"':
            return "".join(out), j + 1
        out.append(c)
        j += 1
    raise LexError("unterminated string literal", line, col)


def _scan_char(src: str, i: int, line: int, col: int):
    """Scan the character literal whose quote is at `src[i]`; returns its
    value and the index past the closing quote."""
    n = len(src)
    j = i + 1
    if j >= n or src[j] == "\n":
        raise LexError("unterminated character literal", line, col)
    if src[j] == "\\":
        if j + 1 >= n or src[j + 1] not in _ESCAPES:
            raise LexError("bad escape in character literal", line, col + 1)
        value = _ESCAPES[src[j + 1]]
        j += 2
    else:
        value = src[j]
        j += 1
    if j >= n or src[j] != "'":
        raise LexError("unterminated character literal", line, col)
    return value, j + 1
