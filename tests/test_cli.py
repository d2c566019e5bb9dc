import json

import pytest
from click.testing import CliRunner

from campl.cli import main
from conftest import CORPUS


@pytest.fixture()
def runner():
    return CliRunner()


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


# ---------------------------------------------------------------------------
# dump-ast

def test_dump_ast_roundtrips(runner, tmp_path):
    r = runner.invoke(main, ["dump-ast", corpus("listing5.campl")])
    assert r.exit_code == 0
    from campl.parser import parse_source
    assert parse_source(r.stdout) == \
        parse_source((CORPUS / "listing5.campl").read_text())


def test_dump_ast_reports_syntax_errors(runner, tmp_path):
    src = tmp_path / "bad.campl"
    src.write_text("proc p = | ch => -> put\n")
    r = runner.invoke(main, ["dump-ast", str(src)])
    assert r.exit_code == 1
    assert "ParseError" in r.stderr


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


def test_style_note_when_run_is_not_last(runner):
    r = runner.invoke(main, ["check", corpus("listing2.campl")])
    assert r.exit_code == 0
    assert "final process" in r.stderr
    r2 = runner.invoke(main, ["check", corpus("listing1.campl")])
    assert r2.exit_code == 0
    assert r2.stderr == ""
