"""The front-end differential, parsed once.

Each source program (the corpus, the golden programs and 100 genprog
seeds) and each variant made from it, by dropping one line or stripping
one command's `on <channel>`, is parsed once.  Three oracles read that
parse:

- the bare-command reference walk, the check the parser's descent
  replaced, against the bare commands the parser reports;
- what `campl check` prints, as text and as JSON lines, against
  `check_digests.json`;
- what `campl dump-ast` does, its exit code and its output, against
  `dump_ast_digests.json`.

The pass runs once per test session and keeps only the digests of each
family and any input where the parser and the walk disagree.  Rewrite
both digest files, only for an intended change in diagnostics or in
`dump-ast` output, with

    PYTHONPATH=src python tests/test_differential.py
"""

import functools
import hashlib
import json
import pathlib
import re
import sys
from dataclasses import dataclass, field

from campl import lexer, parser
from campl.checker import check_program
from campl.diagnostics import (
    LEX_ERROR, PARSE_ERROR, CheckFailure, Diagnostic, ParseFailure, sort_key,
)
from campl.model import OnDo, ProcDef
from campl.printer import roundtrip_print
from conftest import CORPUS, line_drops, sub_bodies
from genprog import gen_program
from test_descent import BARE
from test_goldens import FAULTS, LINKS, MESSAGES, PERFBENCH

HERE = pathlib.Path(__file__).resolve().parent
CHECK_DIGESTS = HERE / "check_digests.json"
DUMP_AST_DIGESTS = HERE / "dump_ast_digests.json"


def _channel_strips(text: str):
    """`text` with the `on <channel>` of one command removed."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        stripped = re.sub(r" on \w+$", "", line.rstrip("\n"))
        if stripped != line.rstrip("\n"):
            yield "".join(lines[:i] + [stripped + "\n"] + lines[i + 1:])


def _families():
    """(name, texts): each source program with the variants made from it."""
    small = [(p.name, p.read_text(encoding="utf-8"))
             for p in sorted(CORPUS.glob("*.campl"))]
    small += [*FAULTS.items(), *LINKS.items(), *MESSAGES.items()]
    for name, text in PERFBENCH.items():
        yield name, [text]
    for name, text in small:
        yield name, [text, *(t for _, t in line_drops(text))]
    for seed in range(100):
        text = roundtrip_print(gen_program(seed))
        yield f"genprog-{seed}", [text, *(t for _, t in line_drops(text)),
                                  *_channel_strips(text)]


class _Descent(parser.Parser):
    """A parser that keeps the declarations its descent built, including
    those of a program that then fails to parse."""
    decls: list = []

    def _validate(self, decls):
        self.decls = list(decls)
        super()._validate(decls)


def _parse(text: str):
    """Parse `text` as `parse_source` does.  Returns the declarations the
    descent built, the program (None when parsing failed) and the
    diagnostics."""
    try:
        descent = _Descent(lexer.tokenize(text))
    except lexer.LexError as e:
        return [], None, [Diagnostic(LEX_ERROR, e.pos, e.message)]
    try:
        prog = descent.parse_program()
    except ParseFailure as e:
        return descent.decls, None, e.errors
    return descent.decls, prog, []


def _check_bare_commands(body: tuple, inside_on: bool,
                         errors: list[Diagnostic]) -> None:
    """The walk over a parsed process body that reported bare commands
    before the parser did."""
    for cmd in body:
        if not inside_on and getattr(cmd, "chan", "n/a") is None:
            errors.append(Diagnostic(PARSE_ERROR, cmd.pos, BARE))
        for sub in sub_bodies(cmd):
            _check_bare_commands(sub, inside_on or type(cmd) is OnDo, errors)


def _lines(errors: list[Diagnostic]) -> str:
    """Diagnostics as the CLI prints them for `prog.campl`, as text and
    then as JSON lines."""
    return "".join([*(d.text("prog.campl") + "\n" for d in errors),
                    *(d.json_line("prog.campl") + "\n" for d in errors)])


@dataclass
class _Pass:
    check: dict[str, str] = field(default_factory=dict)
    dump_ast: dict[str, str] = field(default_factory=dict)
    # Each input whose bare-command reports differ from the walk's.
    bare_mismatches: list[str] = field(default_factory=list)
    texts: int = 0
    reported: int = 0


@functools.cache
def _one_pass() -> _Pass:
    """Parse every input of the differential once, and derive from that
    parse what each of the three oracles compares."""
    out = _Pass()
    for name, texts in _families():
        check, dump_ast = hashlib.sha256(), hashlib.sha256()
        for text in texts:
            decls, prog, errors = _parse(text)
            expected: list[Diagnostic] = []
            for d in decls:
                if type(d) is ProcDef:
                    _check_bare_commands(d.body, False, expected)
            got = [e for e in errors if e.message == BARE]
            if got != sorted(expected, key=sort_key):
                out.bare_mismatches.append(text)
            out.texts += 1
            out.reported += len(got)
            if prog is None:
                printed = _lines(errors)
                dump_ast.update(b"1\0" + printed.encode() + b"\0")
            else:
                dump_ast.update(b"0\0" + roundtrip_print(prog).encode()
                                + b"\0")
                try:
                    check_program(prog)
                    printed = ""
                except CheckFailure as e:
                    printed = _lines(e.errors)
            check.update(printed.encode() + b"\0")
        out.check[name] = check.hexdigest()
        out.dump_ast[name] = dump_ast.hexdigest()
    return out


def test_parser_reports_bare_commands_as_the_reference_walk():
    p = _one_pass()
    assert p.bare_mismatches == []
    assert p.texts > 6000 and p.reported > 1000, (p.texts, p.reported)


def test_check_diagnostics_match_their_recorded_digests():
    # Recorded before the checker dispatched through tables.  The one
    # intended change since is that a plug binds the names free in exactly
    # two of its branches; no input here nests a plug in a plug branch or
    # a fork arm, so no digest moved.
    want = json.loads(CHECK_DIGESTS.read_text())
    got = _one_pass().check
    assert len(got) == 132
    assert {name for name in got if want.get(name) != got[name]} == set()


def test_dump_ast_output_matches_its_recorded_digests():
    # Recorded before the printer's arm blocks and the lexer's string
    # errors were each written once.
    want = json.loads(DUMP_AST_DIGESTS.read_text())
    got = _one_pass().dump_ast
    assert len(got) == 132
    assert {name for name in got if want.get(name) != got[name]} == set()


if __name__ == "__main__":
    for path, table in ((CHECK_DIGESTS, _one_pass().check),
                        (DUMP_AST_DIGESTS, _one_pass().dump_ast)):
        path.write_text(json.dumps(table, indent=1) + "\n")
        print(f"wrote {len(table)} digests to {path}", file=sys.stderr)
