import gc
import io
import json
import os
import random
import subprocess
import sys

import pytest

from campl import cli
from campl.cli import main
from campl.checker import check_program
from campl.diagnostics import CheckFailure, ParseFailure
from campl.elaborate import prepare
from campl.parser import MAX_TYPE_DEPTH, parse_source
from campl.printer import roundtrip_print
from campl.runtime import MachineFault, boot
from campl.services import ServiceConfig
from conftest import CORPUS, ROOT, Runner, corpus_text, load_perfbench


@pytest.fixture()
def runner():
    return Runner()


def corpus(name: str) -> str:
    return str(CORPUS / name)


# ---------------------------------------------------------------------------
# check

def test_check_clean_program_is_silent(runner):
    r = runner.invoke(main, ["check", corpus("appendix_c.campl")])
    assert r.exit_code == 0
    assert r.stdout == ""


def test_check_appendix_b_exits_one_naming_ch(runner):
    r = runner.invoke(main, ["check", corpus("appendix_b.campl")])
    assert r.exit_code == 1
    assert "ch" in r.stderr
    assert "PlugPolarityMismatch" in r.stderr


def test_check_missing_file_exits_two(runner):
    r = runner.invoke(main, ["check", corpus("no_such_file.campl")])
    assert r.exit_code == 2


def test_non_utf8_program_file_exits_two(runner, tmp_path):
    src = tmp_path / "latin1.campl"
    src.write_bytes(b"proc run =\n    | => -> \xe9\n")
    r = runner.invoke(main, ["check", str(src)])
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 2
    assert r.stderr.startswith(f"cannot read {src}: ")
    assert "Traceback" not in r.stderr


# Both plug branches use both enclosing channels; the checker reports the
# first it finds, which once depended on the string hash seed.
SHARED_BY_TWO_BRANCHES = ("proc p =\n"
                          "    | => alpha, beta -> plug\n"
                          "        do\n"
                          "            close alpha\n"
                          "            close beta\n"
                          "            halt z\n"
                          "        do\n"
                          "            close alpha\n"
                          "            close beta\n"
                          "            halt z\n")


def test_check_output_does_not_depend_on_the_hash_seed(tmp_path):
    src = tmp_path / "shared.campl"
    src.write_text(SHARED_BY_TWO_BRANCHES, encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    stderrs = set()
    for seed in ("1", "2", "3"):
        r = subprocess.run(
            [sys.executable, "-m", "campl.cli", "check", str(src)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
        assert r.returncode == 1
        stderrs.add(r.stderr)
    [stderr] = stderrs
    assert (f"{src}:2:25: LinearityReuse: plug branches 0 and 1 both use "
            f"channel 'alpha'\n") in stderr


def test_check_json_diagnostics(runner):
    r = runner.invoke(main, ["check", corpus("appendix_b.campl"),
                             "--json-diagnostics"])
    assert r.exit_code == 1
    objs = [json.loads(line) for line in r.stderr.splitlines()
            if line.startswith("{")]
    assert objs
    for o in objs:
        assert {"kind", "file", "line", "col", "message", "channel",
                "type"} <= set(o)
    assert any(o["channel"] == "ch" for o in objs)


def test_json_diagnostic_names_the_inferred_channel_type(runner, tmp_path):
    # With the server's `put server_id` turned into a get, `ch` is an input
    # end at the inferred type Get(Int|TopBot), which allows only put.
    lines = corpus_text("appendix_c.campl").splitlines(keepends=True)
    lines[4] = lines[4].replace("put server_id", "get y")
    p = tmp_path / "getget.campl"
    p.write_text("".join(lines))
    r = runner.invoke(main, ["check", str(p), "--json-diagnostics"])
    assert r.exit_code == 1
    [o] = [json.loads(line) for line in r.stderr.splitlines()
           if line.startswith("{")]
    assert (o["line"], o["col"], o["kind"], o["channel"], o["type"]) == \
        (5, 13, "PolarityViolation", "ch", "Get(Int|TopBot)")


def test_diagnostic_text_format(runner):
    r = runner.invoke(main, ["check", corpus("appendix_b.campl")])
    line = next(l for l in r.stderr.splitlines() if "Mismatch" in l)
    path, lineno, col, kind, rest = line.split(":", 4)
    assert path.endswith("appendix_b.campl")
    assert lineno.isdigit() and col.isdigit()
    assert kind.strip() == "PlugPolarityMismatch"


# ---------------------------------------------------------------------------
# run

def test_run_listing1_prints_hello_world(runner):
    r = runner.invoke(main, ["run", corpus("listing1.campl")])
    assert r.exit_code == 0
    assert r.stdout == "Hello World!\n"


def test_run_listing9_prints_two_lines(runner):
    r = runner.invoke(main, ["run", corpus("listing9.campl")])
    assert r.exit_code == 0
    assert r.stdout.splitlines() == [
        "Server says: Running the stored process", "Hello World!"]


def test_run_rejects_ill_typed_program(runner):
    r = runner.invoke(main, ["run", corpus("appendix_b.campl")])
    assert r.exit_code == 1
    assert r.stdout == ""


_PING = ("protocol Ping(| ) => S =\n"
         "    Hi :: TopBot => S\n"
         "\nproc sender :: | => Ping(| ) =\n"
         "    | => ch -> hput Hi on ch\n"
         "\nproc receiver :: | Ping(| ) => =\n"
         "    | ch => -> hcase ch of\n"
         "        Hi -> close ch\n"
         "\nproc run =\n"
         "    | => -> plug\n"
         "        sender( | => ch )\n"
         "        receiver( | ch => )\n")


def _drop_line(text: str, lineno: int) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:lineno - 1] + lines[lineno:])


@pytest.mark.parametrize("text,event", [
    (_drop_line(corpus_text("appendix_c.campl"), 6),
     "#5 pid=2 PUT ch=ch#0 payload=5"),
    (_drop_line(corpus_text("appendix_c.campl"), 13),
     "#6 pid=1 GET ch=ch#0 payload=5"),
    (_PING, "#2 pid=1 HPUT ch=ch#0 payload=Hi"),
], ids=["put", "get", "hput"])
def test_unchecked_trace_names_the_channel_of_a_last_command(
        runner, tmp_path, text, event):
    # Each program has a process that ends on this command with the channel
    # still live; its event must still name the channel's id.
    p = tmp_path / "leak.campl"
    p.write_text(text)
    r = runner.invoke(main, ["run", str(p), "--unchecked", "--trace",
                             "--seed", "3"])
    assert r.exit_code == 0
    assert event in r.stderr.splitlines()
    assert "#-1" not in r.stderr


def test_run_unchecked_appendix_b_deadlocks_exit_three(runner):
    r = runner.invoke(main, ["run", corpus("appendix_b.campl"),
                             "--unchecked"])
    assert r.exit_code == 3
    assert "deadlock" in r.stderr


def test_run_trace_goes_to_stderr(runner):
    r = runner.invoke(main, ["run", corpus("listing8.campl"), "--seed", "7",
                             "--trace"])
    assert r.exit_code == 0
    assert r.stdout == ""
    race_lines = [l for l in r.stderr.splitlines() if " RACE " in l]
    assert len(race_lines) == 1


def test_trace_prints_string_payloads_unescaped(runner, tmp_path):
    # Today's bytes, not a promise: with stderr not a terminal, the CLI
    # strips the ANSI escape from the trace line, as it strips all it
    # writes to such a stream, though the Console's stdout keeps it; and a
    # `\n` in a payload splits one event over two lines.
    from test_goldens import ESCAPES
    src = tmp_path / "escapes.campl"
    src.write_text(ESCAPES["escapes.campl"], encoding="utf-8")
    r = runner.invoke(main, ["run", str(src), "--trace"])
    assert r.exit_code == 0
    assert r.stdout == "a\x1b[31mb\na\nb\n"
    events = r.stderr.splitlines()
    assert events[2] == '#2 pid=0 PUT ch=console#0 payload="ab"'
    assert events[4:6] == ['#4 pid=0 PUT ch=console#0 payload="a', 'b"']
    assert events[6].startswith("#5 ")


class _Terminal(io.StringIO):
    def isatty(self) -> bool:
        return True


@pytest.mark.parametrize("terminal", ["stdout", "stderr"])
def test_ansi_escapes_are_stripped_only_off_a_terminal(tmp_path, terminal,
                                                       monkeypatch):
    # The CLI's own writes drop ANSI escape sequences unless their stream
    # is a terminal: so a piped `dump-ast` prints a different program than
    # `roundtrip_print` returns.  The Console's output is never stripped.
    from test_goldens import ESCAPES
    src = tmp_path / "escapes.campl"
    src.write_text(ESCAPES["escapes.campl"], encoding="utf-8")
    printed = roundtrip_print(parse_source(ESCAPES["escapes.campl"]))
    assert 'put "a\x1b[31mb" on console' in printed
    kept = {"stdout": terminal == "stdout", "stderr": terminal == "stderr"}
    for args in (["dump-ast", str(src)], ["run", str(src), "--trace"]):
        streams = {"stdout": io.StringIO(), "stderr": io.StringIO(),
                   terminal: _Terminal()}
        monkeypatch.setattr(sys, "stdout", streams["stdout"])
        monkeypatch.setattr(sys, "stderr", streams["stderr"])
        with pytest.raises(SystemExit) as e:
            main.main(args=args, prog_name="campl")
        monkeypatch.undo()
        assert e.value.code == 0
        out, err = (streams[s].getvalue() for s in ("stdout", "stderr"))
        if args[0] == "dump-ast":
            assert out == (printed if kept["stdout"]
                           else printed.replace("\x1b[31m", ""))
        else:
            assert out == "a\x1b[31mb\na\nb\n"
            assert err.splitlines()[2] == \
                '#2 pid=0 PUT ch=console#0 payload="a%sb"' % (
                    "\x1b[31m" if kept["stderr"] else "")


def test_run_seed_changes_trace_only_via_races(runner):
    r1 = runner.invoke(main, ["run", corpus("listing2.campl"), "--seed", "0",
                              "--trace"])
    r2 = runner.invoke(main, ["run", corpus("listing2.campl"), "--seed", "9",
                              "--trace"])
    assert r1.stderr == r2.stderr   # no races: identical traces


def test_run_stdin_script(runner, tmp_path):
    script = tmp_path / "input.txt"
    script.write_text("from the script\n")
    src = tmp_path / "echo.campl"
    src.write_text(
        "proc run =\n"
        "    | console => ->\n"
        "        on console do\n"
        "            hput ConsoleGet\n"
        "            get line\n"
        "            hput ConsolePut\n"
        "            put line\n"
        "            hput ConsoleClose\n"
        "            halt\n")
    r = runner.invoke(main, ["run", str(src), "--stdin", str(script)])
    assert r.exit_code == 0
    assert r.stdout == "from the script\n"


def test_run_script_exhaustion_exits_one(runner, tmp_path):
    script = tmp_path / "empty.txt"
    script.write_text("")
    src = tmp_path / "echo.campl"
    src.write_text(
        "proc run =\n"
        "    | console => ->\n"
        "        on console do\n"
        "            hput ConsoleGet\n"
        "            get line\n"
        "            hput ConsoleClose\n"
        "            halt\n")
    r = runner.invoke(main, ["run", str(src), "--stdin", str(script)])
    assert r.exit_code == 1
    assert "script" in r.stderr


def test_run_non_utf8_script_exits_two(runner, tmp_path):
    script = tmp_path / "latin1.txt"
    script.write_bytes(b"caf\xe9\n")
    r = runner.invoke(main, ["run", corpus("listing1.campl"),
                             "--stdin", str(script)])
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr.startswith(f"cannot read {script}: ")
    assert "Traceback" not in r.stderr


def test_run_step_limit_exits_four(runner, tmp_path):
    src = tmp_path / "spin.campl"
    src.write_text(
        "protocol Tick(A| ) => S =\n"
        "    Go :: Put(A|S) => S\n"
        "    End :: TopBot => S\n"
        "\nproc pump :: | => Tick(Int| ) =\n"
        "    | => ch -> do\n"
        "        hput Go on ch\n"
        "        put 1 on ch\n"
        "        pump( | => ch )\n"
        "\nproc sink :: | Tick(Int| ) => =\n"
        "    | ch => ->\n"
        "        hcase ch of\n"
        "            Go -> do\n"
        "                get x on ch\n"
        "                sink( | ch => )\n"
        "            End -> close ch\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        pump( | => ch )\n"
        "        sink( | ch => )\n")
    r = runner.invoke(main, ["run", str(src), "--max-steps", "200"])
    assert r.exit_code == 4
    assert "step limit" in r.stderr


def test_run_parse_error_exits_one(runner, tmp_path):
    src = tmp_path / "bad.campl"
    src.write_text("proc p = | ch => -> put\n")
    r = runner.invoke(main, ["run", str(src)])
    assert r.exit_code == 1


def test_check_reports_a_cyclic_store_type_without_a_traceback(
        runner, tmp_path):
    # q's input carries a value whose type is q's own stored signature.
    src = tmp_path / "occurs.campl"
    src.write_text("proc q =\n"
                   "    | i => -> do\n"
                   "        get v on i\n"
                   "        halt i\n"
                   "\nproc p =\n"
                   "    | => o -> do\n"
                   "        put store(q) on o\n"
                   "        halt o\n"
                   "\nproc run =\n"
                   "    | => -> plug\n"
                   "        p( | => ch )\n"
                   "        q( | ch => )\n")
    r = runner.invoke(main, ["check", str(src)])
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 1
    assert "Traceback" not in r.stderr
    assert ":14:9: UnificationFailure: " in r.stderr
    assert "on channel 'ch'" in r.stderr


def test_check_reports_a_non_ascii_digit_as_a_lex_error(runner, tmp_path):
    src = tmp_path / "digit.campl"
    src.write_text("proc run =\n"
                   "    | console => -> do\n"
                   "        put \u00b2 on console\n"
                   "        close console\n", encoding="utf-8")
    r = runner.invoke(main, ["check", str(src)])
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 1
    assert "Traceback" not in r.stderr
    assert ":3:13: LexError: unexpected character '\u00b2'" in r.stderr


# ---------------------------------------------------------------------------
# dump-ast

def test_dump_ast_roundtrips(runner, tmp_path):
    r = runner.invoke(main, ["dump-ast", corpus("listing5.campl")])
    assert r.exit_code == 0
    assert parse_source(r.stdout) == \
        parse_source((CORPUS / "listing5.campl").read_text())


def _console_put(expr: str) -> str:
    return ("proc run =\n"
            "    | console => -> do\n"
            "        hput ConsolePut on console\n"
            f"        put {expr} on console\n"
            "        hput ConsoleClose on console\n"
            "        halt console\n")


@pytest.mark.parametrize("command", ["check", "dump-ast"])
def test_deeply_parenthesized_expression(runner, tmp_path, command):
    src = tmp_path / "parens.campl"
    src.write_text(_console_put("(" * 2000 + '"deep"' + ")" * 2000))
    r = runner.invoke(main, [command, str(src)])
    assert r.exit_code == 0
    assert "Traceback" not in r.stderr
    assert r.stdout == ("" if command == "check"
                        else _console_put('"deep"'))


def test_dump_ast_prints_deeply_nested_types(runner, tmp_path):
    depth = MAX_TYPE_DEPTH
    spine = "Put(Int|Get(Char|" * (depth // 2) + "TopBot" + "))" * (depth // 2)
    text = ("protocol Deep(|) => S =\n"
            f"    Go :: {spine} => S\n"
            "    Stop :: TopBot => S\n\n" + _console_put('"x"'))
    src = tmp_path / "deep.campl"
    src.write_text(text)
    assert runner.invoke(main, ["check", str(src)]).exit_code == 0
    r = runner.invoke(main, ["dump-ast", str(src)])
    assert r.exit_code == 0
    assert "Traceback" not in r.stderr
    assert r.stdout == text
    again, want = parse_source(r.stdout), parse_source(text)
    # A record's `==` recurses once per level of the type.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * depth)
    try:
        assert again == want
    finally:
        sys.setrecursionlimit(limit)


def _deep_type(spine_depth: int, parens: int = 0) -> str:
    spine = "Put(Int|" * spine_depth + "TopBot" + ")" * spine_depth
    return ("protocol Deep(|) => S =\n"
            f"    Go :: {'(' * parens}{spine}{')' * parens} => S\n"
            "    Stop :: TopBot => S\n\n" + _console_put('"x"'))


@pytest.mark.parametrize("command", ["check", "dump-ast"])
def test_types_inside_the_deepest_parentheses_still_parse(runner, tmp_path,
                                                         command):
    src = tmp_path / "parens.campl"
    src.write_text(_deep_type(0, parens=MAX_TYPE_DEPTH))
    r = runner.invoke(main, [command, str(src)])
    assert r.exit_code == 0
    assert r.stdout == ("" if command == "check" else _deep_type(0))


@pytest.mark.parametrize("command", ["check", "dump-ast"])
@pytest.mark.parametrize("spine,parens", [
    (MAX_TYPE_DEPTH + 1, 0), (600, 0), (0, 500), (MAX_TYPE_DEPTH, 1)],
    ids=["spine-257", "spine-600", "parens-500", "spine-256-in-parens"])
def test_too_deep_a_type_is_a_positioned_parse_error(runner, tmp_path,
                                                      command, spine, parens):
    text = _deep_type(spine, parens)
    src = tmp_path / "deep.campl"
    src.write_text(text)
    r = runner.invoke(main, [command, str(src)])
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 1
    assert "Traceback" not in r.stderr
    # The bracket that opens level 257 is the one reported.
    line = text.splitlines()[1]
    col = [i for i, ch in enumerate(line) if ch == "("][MAX_TYPE_DEPTH] + 1
    assert r.stderr == (f"{src}:2:{col}: ParseError: type nested more "
                        f"than {MAX_TYPE_DEPTH} levels deep\n")


def test_deeply_nested_store_types_print(runner, tmp_path):
    # A `Put(` and 255 `Store(`: the deepest a type may nest.
    chain = "Int"
    for _ in range(MAX_TYPE_DEPTH - 1):
        chain = f"Store({chain}|=>)"
    t = f"Put({chain}|TopBot)"
    text = f"proc p :: | {t} => =\n    | c => -> do\n        halt c\n"
    src = tmp_path / "store.campl"
    src.write_text(text)
    r = runner.invoke(main, ["dump-ast", str(src)])
    assert (r.exit_code, r.stdout, r.stderr) == (0, text, "")
    r = runner.invoke(main, ["check", str(src)])
    assert isinstance(r.exception, SystemExit)
    assert r.exit_code == 1
    assert r.stderr == (f"{src}:3:9: IllegalCommand: cannot halt on 'c': "
                        f"its type is {t} (allows get at -)\n")


TWICE_PARAM = ("proc f =\n"
               "    | a, a => -> close a\n"
               "\nproc run =\n"
               "    | => -> plug\n"
               "        f( | x, y => )\n"
               "        close x\n"
               "        halt y\n")

TWICE_SPLIT = ("proc h =\n"
               "    | => p -> fork p as\n"
               "        l -> close l\n"
               "        r -> close r\n"
               "\nproc g =\n"
               "    | p => -> do\n"
               "        split p into a, a\n"
               "        halt a\n"
               "\nproc run =\n"
               "    | => -> plug\n"
               "        h( | => p )\n"
               "        g( | p => )\n")


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("text,diagnostic", [
    (TWICE_PARAM, "1:1: LinearityReuse: the context line of 'f' binds "
                  "channel(s) more than once: a"),
    (TWICE_SPLIT, "8:9: LinearityReuse: split binds 'a' to both halves"),
], ids=["context-line", "split"])
def test_a_channel_bound_twice_is_rejected(runner, tmp_path, command, text,
                                           diagnostic):
    # Both programs used to pass the checker and then deadlock at run time
    # (exit 3) with one end orphaned.
    src = tmp_path / "twice.campl"
    src.write_text(text)
    r = runner.invoke(main, [command, str(src)])
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == f"{src}:{diagnostic}\n"


# A plug as a plug branch: the inner plug joins `q`, the outer one `p`.
NESTED_PLUG = ("proc a =\n"
               "    | => q -> do\n"
               "        put 1 on q\n"
               "        close q\n"
               "\nproc b =\n"
               "    | q => p -> do\n"
               "        get x on q\n"
               "        close q\n"
               "        put x on p\n"
               "        close p\n"
               "\nproc c =\n"
               "    | p => -> do\n"
               "        get y on p\n"
               "        halt p\n"
               "\nproc run =\n"
               "    | => -> plug\n"
               "        plug\n"
               "            a( | => q )\n"
               "            b( | q => p )\n"
               "        c( | p => )\n")


@pytest.mark.parametrize("args", [["check"], ["run", "--trace"],
                                  ["run", "--trace", "--unchecked"]],
                         ids=["check", "run", "run-unchecked"])
def test_a_plug_inside_a_plug_branch_checks_and_runs(runner, tmp_path, args):
    # `q` is free in both inner branches, so the inner plug binds it and
    # the outer branch holding that plug uses only `p`.  Both commands used
    # to reject the program: `check` with PlugPolarityMismatch ("found 1")
    # and `run --unchecked` with an IllegalCommand fault.
    src = tmp_path / "nested.campl"
    src.write_text(NESTED_PLUG)
    r = runner.invoke(main, [args[0], str(src), *args[1:]])
    assert (r.exit_code, r.stdout) == (0, "")
    if args[0] == "run":
        events = r.stderr.splitlines()
        assert events[:2] == ["#0 pid=0 PLUG payload=p",
                              "#1 pid=1 PLUG payload=q"]
        assert "#10 pid=2 GET ch=p#0 payload=1" in events
    else:
        assert r.stderr == ""


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("args,text,code,checked", [
    (["check"], corpus_text("listing1.campl"), 0, True),
    (["check"], "proc p = | ch => -> put\n", 1, False),
    (["check"], corpus_text("appendix_b.campl"), 1, True),
    (["run"], corpus_text("listing1.campl"), 0, True),
    (["run", "--unchecked"], corpus_text("listing1.campl"), 0, False),
], ids=["accepted", "parse-error", "check-failure", "run", "run-unchecked"])
def test_front_end_pauses_the_collector_and_restores_it(
        runner, tmp_path, monkeypatch, enabled, args, text, code, checked):
    seen = {}

    def spy(name, real):
        def call(*args):
            seen.setdefault(name, []).append(gc.isenabled())
            return real(*args)
        monkeypatch.setattr(cli, name, call)
    for name in ("parse_source", "check_program", "boot"):
        spy(name, getattr(cli, name))
    src = tmp_path / "p.campl"
    src.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        r = runner.invoke(main, [args[0], str(src), *args[1:]])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert r.exit_code == code
    assert after is enabled
    assert seen.pop("parse_source") == [False]
    assert seen.pop("check_program", []) == ([False] if checked else [])
    # The machine runs paused too: one pause spans the whole command.
    assert seen == ({"boot": [False]} if args[0] == "run" else {})


def test_front_end_leaves_no_cyclic_garbage():
    # What the paused collector would otherwise find: nothing, on accepted
    # and rejected programs alike.
    frontend = load_perfbench("programs").frontend_source
    texts = [p.read_text(encoding="utf-8") for p in CORPUS.glob("*.campl")]
    texts += [frontend(random.Random(1), 40, 30), TWICE_SPLIT,
              "proc p = | ch => -> put\n"]
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            try:
                check_program(parse_source(text))
            except (CheckFailure, ParseFailure):
                pass
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_unchecked_runs_make_no_cyclic_garbage_while_they_run():
    # The collector stays paused over a whole command, an unchecked run
    # included.  On the corpus and the golden programs, seeds 0-2, such a
    # run leaves nothing for a collection to find while its machine is
    # alive, whether it finishes, deadlocks or faults.
    from test_goldens import (
        ARMS, ARMS_FAULTS, FAULTS, LINKS, MESSAGES, STDIN_SCRIPT,
    )
    goldens = (FAULTS, LINKS, ARMS, ARMS_FAULTS, MESSAGES)
    corpus = sorted(CORPUS.glob("*.campl"))
    texts = [p.read_text(encoding="utf-8") for p in corpus]
    for golden in goldens:
        texts += golden.values()
    kinds = set()
    runs = 0
    was = gc.isenabled()
    gc.disable()
    try:
        for text in texts:
            program = prepare(parse_source(text))
            gc.collect()
            for seed in range(3):
                machine = boot(program, seed, ServiceConfig.from_script(
                    STDIN_SCRIPT.splitlines()), checked=False)
                try:
                    kinds.add(machine.run_to_completion().kind.name)
                except MachineFault:
                    kinds.add("fault")
                runs += 1
                # Everything the run made is young, cycles included.
                assert gc.collect(0) == 0
                del machine
                gc.collect(1)
    finally:
        if was:
            gc.enable()
    assert runs == 3 * (len(corpus) + sum(map(len, goldens)))
    assert kinds == {"DONE", "STUCK", "fault"}


def test_dump_ast_reports_syntax_errors(runner, tmp_path):
    src = tmp_path / "bad.campl"
    src.write_text("proc p = | ch => -> put\n")
    r = runner.invoke(main, ["dump-ast", str(src)])
    assert r.exit_code == 1
    assert "ParseError" in r.stderr


# `f` binds only its second argument; `x`'s end stays with the caller's
# pid, bound to no name, after that process has ended.
ORPHANED_END = ("proc f =\n"
                "    | a, a => -> do\n"
                "        close a\n"
                "\nproc run =\n"
                "    | => -> plug\n"
                "        f( | x, y => )\n"
                "        on x do\n"
                "            halt\n"
                "        on y do\n"
                "            halt\n")


def test_unchecked_end_left_with_an_ended_process_is_a_conservation_fault(
        runner, tmp_path):
    # It used to end as a deadlock naming no process (exit 3).
    src = tmp_path / "orphan.campl"
    src.write_text(ORPHANED_END)
    r = runner.invoke(main, ["run", str(src), "--unchecked", "--trace"])
    assert r.exit_code == 1
    assert r.stderr == ("#0 pid=0 PLUG payload=x,y\n"
                        "#1 pid=1 CALL payload=f\n"
                        "#2 pid=1 CLOSE ch=a#1\n"
                        "error: Conservation: live channel x#0 has an "
                        "unowned end\n")


def test_unchecked_flag_only_exists_on_run(runner):
    r = runner.invoke(main, ["check", corpus("listing1.campl"),
                             "--unchecked"])
    assert r.exit_code == 2


def test_golden_outputs_per_corpus_file(runner):
    golden = {
        "listing1.campl": (0, "Hello World!\n"),
        "listing2.campl": (0, ""),
        "listing3.campl": (0, ""),
        "listing5.campl": (0, ""),
        "listing6.campl": (0, ""),
        "listing7.campl": (0, "one\ntwo\nthree\n"),
        "listing8.campl": (0, ""),
        "listing9.campl": (0, "Server says: Running the stored process\n"
                              "Hello World!\n"),
        "appendix_c.campl": (0, ""),
        "appendix_e.campl": (0, "one\ntwo\nthree\n"),
    }
    for name, (code, stdout) in golden.items():
        for seed in ("0", "5"):
            r = runner.invoke(main, ["run", corpus(name), "--seed", seed])
            assert (r.exit_code, r.stdout) == (code, stdout), name


def test_check_does_not_require_run(runner, tmp_path):
    p = tmp_path / "norun.campl"
    p.write_text("proc helper :: | TopBot => =\n    | a => -> close a\n")
    r = runner.invoke(main, ["check", str(p)])
    assert r.exit_code == 0 and r.stdout == ""


def test_run_requires_run(runner, tmp_path):
    p = tmp_path / "norun.campl"
    p.write_text("proc helper :: | TopBot => =\n    | a => -> close a\n")
    r = runner.invoke(main, ["run", str(p)])
    assert r.exit_code == 1
    assert "MissingRun" in r.stderr


def test_run_with_explicit_console_signature(runner, tmp_path):
    p = tmp_path / "sig.campl"
    p.write_text(
        "proc run :: | Console => =\n"
        "    | console => ->\n"
        "        on console do\n"
        "            hput ConsolePut\n"
        '            put "typed run"\n'
        "            hput ConsoleClose\n"
        "            halt\n")
    r = runner.invoke(main, ["run", str(p)])
    assert r.exit_code == 0 and r.stdout == "typed run\n"


def test_live_console_reads_piped_stdin(runner, tmp_path):
    src = tmp_path / "ask.campl"
    src.write_text(
        "proc run =\n"
        "    | console => ->\n"
        "        on console do\n"
        "            hput ConsoleGet\n"
        "            get answer\n"
        "            hput ConsolePut\n"
        "            put answer\n"
        "            hput ConsoleClose\n"
        "            halt\n")
    r = runner.invoke(main, ["run", str(src)], input="typed at terminal\n")
    assert r.exit_code == 0
    assert "typed at terminal" in r.stdout


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, EOFError])
def test_an_interrupt_prints_aborted_and_exits_one(runner, monkeypatch,
                                                   interrupt):
    def stop(text):
        raise interrupt
    monkeypatch.setattr(cli, "parse_source", stop)
    r = runner.invoke(main, ["check", corpus("listing1.campl")])
    assert (r.exit_code, r.stdout, r.stderr) == (1, "", "\nAborted!\n")


def test_a_reader_that_goes_away_ends_the_command_quietly(tmp_path):
    # More than a pipe holds, written to a pipe nobody reads: the write
    # fails with EPIPE, and campl exits 1 with nothing on stderr, not even
    # from the interpreter's last flush.
    src = tmp_path / "wide.campl"
    frontend = load_perfbench("programs").frontend_source
    src.write_text(frontend(random.Random(1), 200, 20), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    p = subprocess.Popen(
        [sys.executable, "-m", "campl.cli", "dump-ast", str(src)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path})
    p.stdout.close()
    _, stderr = p.communicate(timeout=60)
    assert (p.returncode, stderr) == (1, b"")


def test_live_console_at_end_of_input_is_a_runtime_error(runner, tmp_path):
    # With nothing left to read, a ConsoleGet is the scripted mode's
    # exhausted script: a one-line error and exit 1, not "Aborted!".
    src = tmp_path / "ask.campl"
    src.write_text(
        "proc run =\n"
        "    | console => ->\n"
        "        on console do\n"
        "            hput ConsoleGet\n"
        "            get answer\n"
        "            hput ConsoleClose\n"
        "            halt\n")
    r = runner.invoke(main, ["run", str(src)], input="")
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == ("error: console input ended: a ConsoleGet had no "
                        "line to deliver\n")


def test_style_note_when_run_is_not_last(runner):
    r = runner.invoke(main, ["check", corpus("listing2.campl")])
    assert r.exit_code == 0
    assert "final process" in r.stderr
    r2 = runner.invoke(main, ["check", corpus("listing1.campl")])
    assert r2.exit_code == 0
    assert r2.stderr == ""


# One program per diagnostic that no other test reaches, with the stderr
# `campl check` or `campl run --unchecked` prints for it as `prog.campl`.
PINNED_DIAGNOSTICS = {
    "list-type": (
        "check",
        "proc f :: [Int] | => =\n"
        "    x | => -> halt\n",
        "1:12: ParseError: only [Char] is a valid list type"),
    "sequential-type": (
        "check",
        "proc f :: => | => =\n"
        "    | => -> halt\n",
        "1:11: ParseError: expected a sequential type"),
    "channel-type": (
        "check",
        "proc f :: | 3 => =\n"
        "    | c => -> close c\n",
        "1:13: ParseError: expected a channel type"),
    "store-as-channel": (
        "check",
        "proc f :: | Store(|=>) => =\n"
        "    | c => -> close c\n",
        "1:13: ParseError: Store is a sequential type, not a channel type"),
    "channel-type-argument": (
        "check",
        "protocol P(A| ) => S =\n"
        "    H :: TopBot => S\n"
        "\nproc f :: | P(Int| TopBot) => =\n"
        "    | c => -> close c\n",
        "4:20: ParseError: channel-type parameters are not supported after "
        "'|' in a protocol application"),
    "unknown-sequential-type": (
        "check",
        "proc f :: Foo | TopBot => =\n"
        "    x | c => -> close c\n",
        "1:11: ParseError: unknown sequential type 'Foo'"),
    "stored-signature-scope": (
        # A stored signature cannot see its declaration's parameters.
        "check",
        "protocol P(A| ) => S =\n"
        "    H :: Put(Store(A| =>)|S) => S\n",
        "2:20: ParseError: unknown sequential type 'A'"),
    "type-argument-count": (
        "check",
        "protocol P(A| ) => S =\n"
        "    H :: TopBot => S\n"
        "\nproc f :: | P(Int, Char| ) => =\n"
        "    | c => -> hcase c of\n"
        "        H -> close c\n",
        "4:13: ParseError: P expects 1 type argument(s), got 2"),
    "store-section-lengths": (
        "check",
        "proc g :: | Console => =\n"
        "    | c => -> do\n"
        "        hput ConsoleClose on c\n"
        "        close c\n"
        "\nproc f :: | => Put(Store(Int| =>)|TopBot) =\n"
        "    | => ch -> do\n"
        "        put store(g) on ch\n"
        "        halt ch\n",
        "8:9: SeqMismatch: sequential type mismatch: Store(|Console=>) vs "
        "Store(Int|=>)"),
    "plug-branch-calls-unknown-process": (
        # The branch gives no polarity evidence: its callee is unknown.
        "check",
        "proc run =\n"
        "    | => -> plug\n"
        "        ghost( | => x )\n"
        "        do\n"
        "            get v on x\n"
        "            close x\n",
        "3:9: IllegalCommand: call to unknown process 'ghost'"),
    "plugged-name-past-the-callee-parameters": (
        # `b` matches none of `client`'s channel parameters, so its branch
        # gives no polarity evidence for it.
        "check",
        "proc client =\n"
        "    | => ch -> do\n"
        "        put 1 on ch\n"
        "        halt ch\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        client( | => a, b )\n"
        "        do\n"
        "            get v on a\n"
        "            close a\n"
        "        do\n"
        "            get w on b\n"
        "            close b\n",
        "8:9: ArityMismatch: process 'client' takes 0 value(s) and 1 "
        "channel(s); call passes 0 and 2"),
    "console-close-then-handle": (
        "run",
        "proc run =\n"
        "    | console => -> do\n"
        "        hput ConsoleClose on console\n"
        "        hput ConsolePut on console\n"
        "        close console\n",
        "error: IllegalCommand: console expected close after ConsoleClose"),
    "console-unknown-handle": (
        "run",
        "proc run =\n"
        "    | console => -> do\n"
        "        hput Shout on console\n"
        "        close console\n",
        "error: IllegalCommand: console got unknown handle Shout"),
    "store-of-unknown-process": (
        "run",
        "proc run =\n"
        "    | console => -> do\n"
        "        use(store(nothere))( | console => )\n",
        "error: IllegalCommand: store of unknown process 'nothere'"),
    "run-sequential-parameter": (
        "run",
        "proc run =\n"
        "    n | console => -> close console\n",
        "error: run cannot take sequential parameters"),
    "run-output-channel": (
        "run",
        "proc run =\n"
        "    | console => c -> do\n"
        "        close console\n"
        "        halt c\n",
        "error: run cannot take output channels"),
}


@pytest.mark.parametrize("name", PINNED_DIAGNOSTICS)
def test_each_pinned_diagnostic_is_printed_as_recorded(runner, tmp_path,
                                                       name):
    command, text, stderr = PINNED_DIAGNOSTICS[name]
    src = tmp_path / "prog.campl"
    src.write_text(text, encoding="utf-8")
    args = [command, str(src)] + (["--unchecked"] if command == "run" else [])
    r = runner.invoke(main, args, input="")
    if command == "check":
        stderr = f"{src}:{stderr}"
    assert (r.exit_code, r.stdout, r.stderr) == (1, "", stderr + "\n")
