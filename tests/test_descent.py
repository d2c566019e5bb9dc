"""What the parser records during its one descent.

A command that may name its channel (`put`, `get`, `hput`, `hcase`,
`close`, `halt`, `fork`, `split`) must name it unless it sits inside an
`on` block; commands inside an inline `store(proc ...)` are left to the
checker.  The pinned cases below fix the exact diagnostics, and
`test_differential.py` compares them with a walk over the parsed
declarations, the reference the parser replaced.  The parser also records each node that
holds types, so the resolver resolves the signature of an inline stored
process wherever it sits without walking any body.
"""

import json

import pytest
from click.testing import CliRunner

from campl import model, parser
from campl.cli import main
from campl.diagnostics import ParseFailure
from campl.model import (
    ProcDef, ProcSignature, ProtocolDecl, ProtoApp, StoreOf, StoreType,
    map_command, type_parts,
)
from campl.parser import parse_source
from campl.printer import roundtrip_print
from conftest import CORPUS
from genprog import gen_program

BARE = ("this command needs a channel: write 'on <channel>' or wrap it in "
        "an 'on ... do' block")


def _cli(tmp_path, text: str, *args: str):
    src = tmp_path / "prog.campl"
    src.write_text(text, encoding="utf-8")
    return CliRunner().invoke(main, [*args, str(src)]), str(src)


# ---------------------------------------------------------------------------
# pinned diagnostics

TOP_LEVEL = ("proc p =\n"
             "    | ch => -> do\n"
             "        put 1\n"
             "        close\n"
             "        hcase of\n"
             "            H -> halt ch\n")

NESTED = ("proc p =\n"
          "    | ch => -> hcase ch of\n"
          "        H -> do\n"
          "            get x\n"
          "            halt ch\n"
          "        K -> plug\n"
          "            split into a, b\n"
          "            do\n"
          "                fork ch as\n"
          "                    l -> hput H\n"
          "                    r -> halt r\n")

THEN_A_SYNTAX_ERROR = ("proc p =\n"
                       "    | ch => -> do\n"
                       "        put 1\n"
                       "        get\n"
                       "        halt ch\n")

TWO_DECLARATIONS = ("proc p =\n"
                    "    | ch => -> put 1\n"
                    "\nproc q =\n"
                    "    | ch => -> do\n"
                    "        get x\n"
                    "        halt ch\n")

INSIDE_ON = ("proc p =\n"
             "    | ch => -> on ch do\n"
             "        put 1\n"
             "        hcase of\n"
             "            H -> close\n"
             "            K -> do\n"
             "                fork as\n"
             "                    l -> halt l\n"
             "                    r -> plug\n"
             "                        get y\n"
             "                        halt\n"
             "        halt\n")

INSIDE_INLINE = {
    "in-an-on-block": ("proc sender =\n"
                       "    | => ch -> on ch do\n"
                       "        put store(proc anon :: | TopBot => =\n"
                       "            | c => -> do\n"
                       "                put 2\n"
                       "                close\n"
                       "            )\n"
                       "        halt\n"),
    "outside-on-blocks": ("proc sender =\n"
                          "    | => ch -> do\n"
                          "        put store(proc anon :: | TopBot => =\n"
                          "            | c => -> do\n"
                          "                put 2\n"
                          "                close\n"
                          "            ) on ch\n"
                          "        halt ch\n"),
}

# An item indented deeper than its block's column, in each kind of block.
TOO_DEEP = {
    "command-block": ("proc p =\n"
                      "    | ch => -> do\n"
                      "        put 1 on ch\n"
                      "          halt ch\n"),
    "plug-branches": ("proc run =\n"
                      "    | => -> plug\n"
                      "        f( | => x )\n"
                      "          g( | x => )\n"),
    "arms": ("proc p =\n"
             "    | ch => -> hcase ch of\n"
             "        A -> halt ch\n"
             "          B -> halt ch\n"),
    "handle-clauses": ("protocol P( | ) => S =\n"
                       "    A :: TopBot => S\n"
                       "      B :: TopBot => S\n"),
    "inline-process": ("proc s =\n"
                       "    | => ch -> do\n"
                       "        put store(proc a :: | => TopBot =\n"
                       "            | => c -> do\n"
                       "                halt c\n"
                       "                  close c\n"
                       "            ) on ch\n"
                       "        halt ch\n"),
}


@pytest.mark.parametrize("command", ["check", "dump-ast"])
@pytest.mark.parametrize("text,expected", [
    (TOP_LEVEL, [(3, 9, BARE), (4, 9, BARE), (5, 9, BARE)]),
    (NESTED, [(4, 13, BARE), (7, 13, BARE), (10, 26, BARE)]),
    (THEN_A_SYNTAX_ERROR, [(5, 9, "expected binder, found 'halt'")]),
    (TWO_DECLARATIONS, [(2, 16, BARE), (6, 9, BARE)]),
], ids=["top-level", "hcase-arm-and-plug-branch", "then-a-syntax-error",
        "two-declarations"])
def test_bare_command_diagnostics(tmp_path, command, text, expected):
    r, src = _cli(tmp_path, text, command)
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == "".join(f"{src}:{line}:{col}: ParseError: {msg}\n"
                               for line, col, msg in expected)
    r, src = _cli(tmp_path, text, command, "--json-diagnostics")
    assert r.exit_code == 1
    assert [json.loads(x) for x in r.stderr.splitlines()] == [
        {"kind": "ParseError", "file": src, "line": line, "col": col,
         "message": msg, "channel": None, "type": None}
        for line, col, msg in expected]


def test_commands_inside_an_on_block_need_no_channel(tmp_path):
    r, _ = _cli(tmp_path, INSIDE_ON, "dump-ast")
    assert r.exit_code == 0
    assert r.stderr == ""
    assert parse_source(r.stdout) == parse_source(INSIDE_ON)


@pytest.mark.parametrize("name", sorted(INSIDE_INLINE))
def test_a_bare_command_inside_an_inline_process_is_left_to_the_checker(
        tmp_path, name):
    r, _ = _cli(tmp_path, INSIDE_INLINE[name], "dump-ast")
    assert r.exit_code == 0
    assert r.stderr == ""
    r, src = _cli(tmp_path, INSIDE_INLINE[name], "check")
    assert r.exit_code == 1
    assert r.stderr == (
        f"{src}:1:1: UnificationFailure: could not infer a complete "
        f"signature for 'sender'; underdetermined type(s): Put(?s2|?c3)\n"
        f"{src}:5:17: IllegalCommand: put without a channel outside an "
        f"'on' block\n")


@pytest.mark.parametrize("name,line,col,expected_col,word", [
    ("command-block", 4, 11, 9, "halt"), ("plug-branches", 4, 11, 9, "g"),
    ("arms", 4, 11, 9, "B"), ("handle-clauses", 3, 7, 5, "B"),
    ("inline-process", 6, 19, 17, "close"),
])
def test_an_item_indented_too_deep_is_reported_where_it_stands(
        name, line, col, expected_col, word):
    with pytest.raises(ParseFailure) as e:
        parse_source(TOO_DEEP[name])
    [d] = e.value.errors
    assert (d.pos.line, d.pos.col, d.message) == (
        line, col, f"unexpected {word!r}; expected the next item at column "
                   f"{expected_col} or a dedent")


# The other layout diagnostics of each kind of block, and the duplicate-name
# checks, with where each is reported.
LAYOUT = {
    # a block that does not start deeper than the line that opens it
    "commands-not-deeper": ("proc p =\n"
                            "    | ch => -> do\n"
                            "    halt ch\n",
                            3, 5, "expected an indented block of commands"),
    "on-block-not-deeper": ("proc p =\n"
                            "    | ch => -> on ch do\n"
                            "    halt\n",
                            3, 5, "expected an indented block of commands"),
    "block-at-end-of-input": ("proc p =\n"
                              "    | ch => -> do\n",
                              3, 0, "expected an indented block of commands"),
    "plug-not-deeper": ("proc run =\n"
                        "    | => -> plug\n"
                        "    f( | => x )\n",
                        3, 5, "expected indented plug branches"),
    "hcase-not-deeper": ("proc p =\n"
                         "    | ch => -> hcase ch of\n"
                         "    A -> halt ch\n",
                         3, 5, "expected indented handle arms"),
    "fork-not-deeper": ("proc p =\n"
                        "    | => ch -> fork ch as\n"
                        "    a -> halt a\n",
                        3, 5, "expected indented channel arms"),
    "race-not-deeper": ("proc p =\n"
                        "    | a, b => -> race\n"
                        "    a -> halt a\n",
                        3, 5, "expected indented channel arms"),
    "handles-not-deeper": ("protocol P( | ) => S =\n"
                           "A :: TopBot => S\n",
                           2, 1, "expected an indented block of handle "
                                 "clauses"),
    # a block whose first item is not of its kind
    "hcase-no-arm": ("proc p =\n"
                     "    | ch => -> hcase ch of\n"
                     "        halt ch\n",
                     3, 9, "expected at least one handle arm"),
    "fork-no-arm": ("proc p =\n"
                    "    | => ch -> fork ch as\n"
                    "        halt ch\n",
                    3, 9, "expected at least one channel arm"),
    "race-no-arm": ("proc p =\n"
                    "    | a => -> race\n"
                    "        halt a\n",
                    3, 9, "expected at least one channel arm"),
    "no-handle-clause": ("protocol P( | ) => S =\n"
                         "    :: TopBot => S\n",
                         2, 5, "a declaration needs at least one handle "
                               "clause"),
    # the number of items
    "plug-one-branch": ("proc run =\n"
                        "    | => -> plug\n"
                        "        f( | => x )\n",
                        2, 13, "plug needs at least two branches"),
    "fork-one-branch": ("proc p =\n"
                        "    | => ch -> fork ch as\n"
                        "        a -> halt a\n",
                        2, 16, "fork takes exactly two branches"),
    "fork-three-branches": ("proc p =\n"
                            "    | => ch -> fork ch as\n"
                            "        a -> halt a\n"
                            "        b -> halt b\n"
                            "        c -> halt c\n",
                            2, 16, "fork takes exactly two branches"),
    # a declaration starts with a keyword, not a string that spells one
    "string-at-the-top-column": ("proc p =\n"
                                 "    | => c -> halt c\n"
                                 "\"proc\"\n",
                                 3, 1, "expected a top-level declaration "
                                       "(proc, protocol, or coprotocol)"),
    # duplicate names: processes, and protocols with coprotocols
    "duplicate-process": ("proc p =\n"
                          "    | ch => -> halt ch\n"
                          "\nproc p =\n"
                          "    | ch => -> halt ch\n",
                          4, 1, "duplicate process definition 'p'"),
    "duplicate-declaration": ("protocol P( | ) => S =\n"
                              "    A :: TopBot => S\n"
                              "\ncoprotocol S => P( | ) =\n"
                              "    A :: S => TopBot\n",
                              4, 1, "duplicate declaration 'P'"),
}


@pytest.mark.parametrize("name", LAYOUT)
def test_layout_diagnostics_are_reported_where_they_stand(tmp_path, name):
    text, line, col, message = LAYOUT[name]
    r, src = _cli(tmp_path, text, "check")
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == f"{src}:{line}:{col}: ParseError: {message}\n"


def test_a_process_and_a_protocol_may_share_a_name():
    parse_source("protocol p( | ) => S =\n"
                 "    A :: TopBot => S\n"
                 "\nproc p =\n"
                 "    | ch => -> halt ch\n")


# ---------------------------------------------------------------------------
# inline stored processes

def _anon(indent: int) -> str:
    """An inline stored process whose signature names `Late`, a protocol
    declared at the end of each program; its closing parenthesis sits at
    `indent`."""
    i = " " * indent
    return ("store(proc anon :: | => Late =\n"
            f"{i}    | => c -> do\n"
            f"{i}        hput Stop on c\n"
            f"{i}        halt c\n"
            f"{i})")


RECEIVER = ("\nproc receiver =\n"
            "    | ch, console => -> do\n"
            "        on ch do\n"
            "            get s\n"
            "            close\n"
            "        on console do\n"
            "            hput ConsoleClose\n"
            "            halt\n")

RUN = ("\nproc run =\n"
       "    | console => -> plug\n"
       "        sender( | => ch )\n"
       "        receiver( | ch, console => )\n")

LATE = ("\nprotocol Late( | ) => S =\n"
        "    Stop :: TopBot => S\n")

INLINE = {
    "on-block": ("proc sender =\n"
                 "    | => ch -> on ch do\n"
                 f"        put {_anon(8)}\n"
                 "        halt\n" + RECEIVER + RUN + LATE),
    "plug-branch": (RECEIVER.lstrip("\n") +
                    "\nproc run =\n"
                    "    | console => -> plug\n"
                    "        do\n"
                    f"            put {_anon(12)} on ch\n"
                    "            halt ch\n"
                    "        receiver( | ch, console => )\n" + LATE),
    "hcase-arm": ("proc sender =\n"
                  "    | go => ch -> hcase go of\n"
                  "        Go -> do\n"
                  "            close go\n"
                  f"            put {_anon(12)} on ch\n"
                  "            halt ch\n"
                  "\nproc starter =\n"
                  "    | => go -> do\n"
                  "        hput Go on go\n"
                  "        halt go\n" + RECEIVER +
                  "\nproc run =\n"
                  "    | console => -> plug\n"
                  "        starter( | => go )\n"
                  "        sender( | go => ch )\n"
                  "        receiver( | ch, console => )\n"
                  "\nprotocol Start( | ) => S =\n"
                  "    Go :: TopBot => S\n" + LATE),
    "race-arm": ("proc sender =\n"
                 "    | a, b => ch -> race\n"
                 "        a -> do\n"
                 "            get x on a\n"
                 "            get y on b\n"
                 "            close a\n"
                 "            close b\n"
                 f"            put {_anon(12)} on ch\n"
                 "            halt ch\n"
                 "        b -> do\n"
                 "            get y on b\n"
                 "            get x on a\n"
                 "            close a\n"
                 "            close b\n"
                 "            put store(late) on ch\n"
                 "            halt ch\n"
                 "\nproc late =\n"
                 "    | => c -> do\n"
                 "        hput Stop on c\n"
                 "        halt c\n"
                 "\nproc one =\n"
                 "    | => a -> do\n"
                 "        put 1 on a\n"
                 "        halt a\n" + RECEIVER +
                 "\nproc run =\n"
                 "    | console => -> plug\n"
                 "        one( | => a )\n"
                 "        one( | => b )\n"
                 "        sender( | a, b => ch )\n"
                 "        receiver( | ch, console => )\n" + LATE),
    "inline-process": ("proc sender =\n"
                       "    | => ch -> on ch do\n"
                       "        put store(proc outer :: | => "
                       "Put(Store(| => Late)|TopBot) =\n"
                       "            | => d -> do\n"
                       f"                put {_anon(16)} on d\n"
                       "                halt d\n"
                       "            )\n"
                       "        halt\n" + RECEIVER + RUN + LATE),
}


@pytest.mark.parametrize("name", sorted(INLINE))
def test_inline_process_types_resolve_wherever_it_sits(tmp_path, name):
    text = INLINE[name]
    r, _ = _cli(tmp_path, text, "check")
    assert (r.exit_code, r.stdout, r.stderr) == (0, "", "")
    r, _ = _cli(tmp_path, text, "dump-ast")
    assert r.exit_code == 0
    assert parse_source(r.stdout) == parse_source(text)
    again, _ = _cli(tmp_path, r.stdout, "dump-ast")
    assert again.stdout == r.stdout


def _inline_procs(body: tuple) -> list:
    """Every process stored inline in `body`, at any depth, in source
    order."""
    found = []

    def expr(e):
        if type(e) is StoreOf and isinstance(e.target, ProcDef):
            found.append(e.target)
            walk(e.target.body)
        return e

    def walk(b):
        for cmd in b:
            map_command(cmd, walk, expr)
        return b
    walk(body)
    return found


def _raw_names(t) -> list:
    """The unresolved named references inside type `t`."""
    if isinstance(t, (parser.ChanName, parser.SeqName)):
        return [t]
    return [r for part in type_parts(t) for r in _raw_names(part)]


def _parse_recording(text: str, monkeypatch):
    """Parse `text`; returns the program and what the descent built before
    the resolver ran: the declarations, each process (inline stored ones
    too) with its body, and each inline stored process with its unresolved
    signature."""
    seen = {}

    class Capture(parser.Parser):
        def _validate(self, decls):
            procs = [d for d in decls if isinstance(d, ProcDef)]
            inline = [p for d in procs for p in _inline_procs(d.body)]
            seen["decls"] = list(decls)
            seen["bodies"] = [(p, p.body) for p in procs + inline]
            seen["inline"] = [(p, p.signature) for p in inline]
            super()._validate(decls)
    with monkeypatch.context() as m:
        m.setattr(parser, "Parser", Capture)
        prog = parse_source(text)
    return prog, seen


def _assert_returned_as_built(prog, seen) -> None:
    assert all(r is d for r, d in zip(prog.decls, seen["decls"],
                                      strict=True))
    assert all(p.body is body for p, body in seen["bodies"])


@pytest.mark.parametrize("name", sorted(INLINE))
def test_only_processes_holding_an_inline_process_are_rebuilt(monkeypatch,
                                                              name):
    """The resolver sets the signature of an inline stored process on the
    node the parser built, so not even the process holding it is rebuilt:
    every declaration and body comes back as parsed, and the signature is
    resolved wherever the inline process sits."""
    prog, seen = _parse_recording(INLINE[name], monkeypatch)
    holders = {d.name for d in seen["decls"]
               if isinstance(d, ProcDef) and _inline_procs(d.body)}
    assert holders == {"run" if name == "plug-branch" else "sender"}
    rebuilt = {d.name for d, r in zip(seen["decls"], prog.decls, strict=True)
               if isinstance(d, ProcDef) and r.body is not d.body}
    assert rebuilt == set()
    _assert_returned_as_built(prog, seen)
    # The inline-process case stores one inline process inside another.
    assert len(seen["inline"]) == (2 if name == "inline-process" else 1)
    for p, raw in seen["inline"]:
        assert _raw_names(StoreType(raw)), p.name
        assert not _raw_names(StoreType(p.signature)), p.name
        if p.name == "anon":
            assert p.signature == ProcSignature((), (), (ProtoApp("Late"),))


def _programs_without_inline_processes():
    texts = [p.read_text(encoding="utf-8")
             for p in sorted(CORPUS.glob("*.campl"))]
    return texts + [roundtrip_print(gen_program(seed)) for seed in range(20)]


def test_processes_without_an_inline_process_keep_their_parsed_bodies(
        monkeypatch):
    for text in _programs_without_inline_processes():
        prog, seen = _parse_recording(text, monkeypatch)
        assert seen["inline"] == []
        _assert_returned_as_built(prog, seen)


def test_the_resolver_walks_no_body_without_an_inline_process(monkeypatch):
    """The resolver is handed only the declarations and processes that
    hold types, never a command, and walks no body; since it resolves an
    inline stored process's signature in place, not even with one."""
    walked = []
    real_map = model.map_command

    def counting(cmd, *args):
        walked.append(cmd)
        return real_map(cmd, *args)
    monkeypatch.setattr(model, "map_command", counting)
    monkeypatch.setattr(parser, "map_command", counting, raising=False)
    handed = []
    real_init = parser._Resolver.__init__

    def recording(self, typed, errors):
        handed.extend(typed)
        real_init(self, typed, errors)
    monkeypatch.setattr(parser._Resolver, "__init__", recording)
    for text in _programs_without_inline_processes():
        parse_source(text)
    assert walked == []
    assert handed
    assert all(type(d) in (ProcDef, ProtocolDecl) for d in handed)
    handed.clear()
    prog = parse_source(INLINE["on-block"])
    assert walked == []
    assert all(type(d) in (ProcDef, ProtocolDecl) for d in handed)
    assert [d.name for d in handed if d not in prog.decls] == ["anon"]
