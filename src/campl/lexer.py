"""Tokenizer for `.campl` source text.

Plain UTF-8 with `--` line comments.  Indentation is significant, so the
tokens carry 1-based line/column positions and the parser applies the
offside rule from them.  Tabs are rejected outright; only spaces may
shape the layout.

The source is scanned line by line, with one regex match per token that
takes the blanks before it along; no literal or comment spans a line.
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


@dataclass(slots=True)
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


# Leading blanks, then at most one token: one group per token class, named
# by its token kind, tried in order: comments before ints so that `--`
# starts a comment, and each operator before its prefixes.  The digit and
# word classes are ASCII only.  A match with no group ends at a quote, a
# stray character or the end of the line.
_TOKEN = re.compile(r"""
    [ ]*
    (?: (?P<comment>--.*)
      | (?P<int>-?[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>\(\*\)|\(\+\)|\|=\||->|=>|::|[()|=\[\],])
    )?
""", re.VERBOSE)


def tokenize(source: str) -> list[Token]:
    """Tokenize `source`, discarding comments.  Raises LexError with a
    position for tabs, unterminated literals, and stray characters."""
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    toks: list[Token] = []
    append = toks.append
    match = _TOKEN.match
    intern = sys.intern
    for line, text in enumerate(lines, 1):
        i = 0
        n = len(text)
        while i < n:
            m = match(text, i)
            kind = m.lastgroup
            if kind is None:
                i = m.end()
                if i == n:
                    break
                col = i + 1
                c = text[i]
                if c == '"':
                    value, i = _scan_string(text, i, line, col)
                    append(Token(STRING, value, line, col))
                elif c == "'":
                    value, i = _scan_char(text, i, line, col)
                    append(Token(CHARLIT, value, line, col))
                elif c == "\t":
                    raise LexError("tab character; indent with spaces",
                                   line, col)
                elif c == ":":
                    raise LexError("expected '::'", line, col)
                else:
                    raise LexError(f"unexpected character {c!r}", line, col)
            elif kind == "comment":
                break
            else:
                # The token ends the match.  Interned, so a name or operator
                # repeated across the source and the AST built from it is
                # one string object.
                start, i = m.span(kind)
                word = intern(text[start:i])
                if kind == IDENT and word in KEYWORDS:
                    kind = KW
                append(Token(kind, word, line, start + 1))
    append(Token(EOF, "", len(lines), 0))
    return toks


_ESCAPES = {"n": "\n", '"': '"', "'": "'", "\\": "\\"}


def _scan_string(src: str, i: int, line: int, col: int):
    """Scan the string literal whose quote is at `src[i]`, column `col`,
    in the line `src`; returns its value and the index past the closing
    quote."""
    n = len(src)
    j = i + 1
    out: list[str] = []
    while j < n:
        c = src[j]
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
    """Scan the character literal whose quote is at `src[i]` in the line
    `src`; returns its value and the index past the closing quote."""
    n = len(src)
    j = i + 1
    if j >= n:
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
