"""Golden digests of the CLI's observable behaviour.

Each case runs one `campl` command in process and hashes its exit code,
stdout and stderr (plus the type of any uncaught exception).  The expected
digests live in `goldens.json` next to this file.  A refactor must leave
every digest unchanged; regenerate them only for an intended behaviour
change, with

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from campl.cli import main
from campl.printer import roundtrip_print
from conftest import Runner, load_perfbench
from genprog import gen_program, with_forwarder
from test_runtime import (
    CONTINUATION_FAULT, CONTINUING_ARMS, FORWARDER_CHAIN, JOINER,
    SPLIT_AFTER_LINKS, TALKER, link_after_fork,
)

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDENS = HERE / "goldens.json"
SEEDS = range(10)

# Console input for every `run`: enough lines for any ConsoleGet.
STDIN_SCRIPT = "first line\nsecond line\nthird line\n"

# Unchecked programs that fault at run time (exit 1).  Between them they
# reach every fault message of process invocation, and the topology
# monitor's cycle (after a plug of two channels or of three, and after a
# |=|) and conservation (a fork's pending ends, directly, through a |=| and
# through a reaped channel) faults.
FAULTS = {
    "cycle_plug.campl": (
        "proc a =\n"
        "    | => x, y -> do\n"
        "        close x\n"
        "        halt y\n"
        "\nproc b =\n"
        "    | x, y => -> do\n"
        "        close x\n"
        "        halt y\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        a( | => x, y )\n"
        "        b( | x, y => )\n"),
    "conservation_pending.campl": (
        "proc talker =\n"
        "    | => x -> fork x as\n"
        "        l -> halt l\n"
        "        r -> halt r\n"
        "\nproc hearer =\n"
        "    | y => -> halt y\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        talker( | => x )\n"
        "        hearer( | x => )\n"),
    "conservation_linked.campl": (
        "proc talker =\n"
        "    | => x -> fork x as\n"
        "        l -> halt l\n"
        "        r -> halt r\n"
        "\nproc joiner =\n"
        "    | a => b -> a |=| b\n"
        "\nproc hearer =\n"
        "    | y => -> halt y\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        talker( | => x )\n"
        "        joiner( | x => y )\n"
        "        hearer( | y => )\n"),
    "link_cycle.campl": (
        "proc talker =\n"
        "    | => x -> do\n"
        "        get v on x\n"
        "        halt x\n"
        "\nproc joiner =\n"
        "    | a => -> a |=| a\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        talker( | => x )\n"
        "        joiner( | x => )\n"),
    # Three plugged channels that close one cycle among themselves.
    "cycle_plug3.campl": (
        "proc a =\n"
        "    | z => x -> do\n"
        "        close z\n"
        "        halt x\n"
        "\nproc b =\n"
        "    | x => y -> do\n"
        "        close x\n"
        "        halt y\n"
        "\nproc c =\n"
        "    | y => z -> do\n"
        "        close y\n"
        "        halt z\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        a( | z => x )\n"
        "        b( | x => y )\n"
        "        c( | y => z )\n"),
    # A fork on a channel whose far end has halted: reaping the channel
    # leaves the fork's message, and the ends pending through it, with no
    # one to claim them.
    "close_then_fork.campl": (
        "proc closer =\n"
        "    | x => -> halt x\n"
        "\nproc forker =\n"
        "    | => x -> fork x as\n"
        "        l -> halt l\n"
        "        r -> halt r\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        closer( | x => )\n"
        "        forker( | => x )\n"),
    "desync.campl": (
        "proc a =\n"
        "    | => ch -> do\n"
        "        hput ConsoleClose on ch\n"
        "        halt ch\n"
        "\nproc b =\n"
        "    | ch => -> do\n"
        "        get x on ch\n"
        "        close ch\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        a( | => ch )\n"
        "        b( | ch => )\n"),
    "phantom.campl": (
        "proc run =\n"
        "    | => -> plug\n"
        "        a( | => ch )\n"
        "        b( | ch => )\n"
        "\nproc a =\n"
        "    | => ch -> do\n"
        "        put 1 on ch\n"
        "        put 2 on phantom\n"
        "        halt ch\n"
        "\nproc b =\n"
        "    | ch => -> do\n"
        "        get x on ch\n"
        "        get y on ch\n"
        "        close ch\n"),
    "call_arity.campl": (
        "proc takes_two =\n"
        "    | a, b => -> do\n"
        "        close a\n"
        "        close b\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        takes_two( | x => )\n"
        "        do\n"
        "            halt x\n"),
    "call_unknown.campl": (
        "proc run =\n"
        "    | => -> nowhere( | => )\n"),
    "call_channel.campl": (
        "proc p =\n"
        "    | a => -> close a\n"
        "\nproc run =\n"
        "    | => -> p( | ghost => )\n"),
    "use_value.campl": (
        "proc run =\n"
        "    | => -> use(5)( | => )\n"),
    "use_arity.campl": (
        "proc p =\n"
        "    | a => -> close a\n"
        "\nproc run =\n"
        "    | => -> use(store(p))( 1 | => )\n"),
    "use_channel.campl": (
        "proc p =\n"
        "    | a => -> close a\n"
        "\nproc run =\n"
        "    | => -> use(store(p))( | ghost => )\n"),
}


# Checked programs whose |=| fuses a channel while a fork's ends are still
# pending (the corpus has no |=|).
LINKS = {
    "link_after_fork_joiner.campl": link_after_fork(JOINER, TALKER),
    "link_after_fork_talker.campl": link_after_fork(TALKER, JOINER),
    "forwarder_chain.campl": FORWARDER_CHAIN,
    "split_after_links.campl": SPLIT_AFTER_LINKS,
}


# A checked program whose hcase and race arms continue with the commands
# after them, one race nested in an hcase arm; its Duel race is a tie that
# seeds 0-3 resolve both ways.  Its unchecked variant faults in the
# continuation after an arm, and runs with the other faults.
ARMS = {"continuing_arms.campl": CONTINUING_ARMS}
ARMS_SEEDS = range(4)
ARMS_FAULTS = {"continuation.campl": CONTINUATION_FAULT}


# Checked programs that pin what the machine prints for each kind of value
# (the corpus sends no Char or Bool), and the order in which a |=| merges
# the messages in flight on both channels it fuses.
MESSAGES = {
    "values.campl": (
        "proc speak :: [Char] | Console => =\n"
        "    word | console => -> do\n"
        "        hput ConsolePut on console\n"
        "        put word on console\n"
        "        hput ConsoleClose on console\n"
        "        halt console\n"
        "\nproc sender =\n"
        "    | => ch -> do\n"
        "        put -7 on ch\n"
        "        put '\\'' on ch\n"
        "        put \"two words\" on ch\n"
        "        put True on ch\n"
        "        put False on ch\n"
        "        put store(speak) on ch\n"
        "        halt ch\n"
        "\nproc receiver :: | Put(Int|Put(Char|Put([Char]|Put(Bool|Put(Bool|"
        "Put(Store([Char]|Console=>)|TopBot)))))), Console => =\n"
        "    | ch, console => -> do\n"
        "        get n on ch\n"
        "        get c on ch\n"
        "        get s on ch\n"
        "        get b on ch\n"
        "        get f on ch\n"
        "        get p on ch\n"
        "        close ch\n"
        "        use(p)( s | console => )\n"
        "\nproc run =\n"
        "    | console => -> plug\n"
        "        sender( | => ch )\n"
        "        receiver( | ch, console => )\n"),
    "link_merge_forward.campl": (
        "proc lefty =\n"
        "    | => a -> do\n"
        "        put 1 on a\n"
        "        put 2 on a\n"
        "        halt a\n"
        "\nproc linker :: | Put(Int|Put(Int|TopBot))"
        " => Put(Int|Put(Int|Put(Int|TopBot))) =\n"
        "    | a => b -> do\n"
        "        put 9 on b\n"
        "        a |=| b\n"
        "\nproc righty =\n"
        "    | b => -> do\n"
        "        get x on b\n"
        "        get y on b\n"
        "        get z on b\n"
        "        close b\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        lefty( | => a )\n"
        "        linker( | a => b )\n"
        "        righty( | b => )\n"),
    "link_merge_backward.campl": (
        "proc righty =\n"
        "    | b => -> do\n"
        "        put 4 on b\n"
        "        halt b\n"
        "\nproc lefty =\n"
        "    | => a -> do\n"
        "        get x on a\n"
        "        get y on a\n"
        "        close a\n"
        "\nproc linker :: | Get(Int|Get(Int|TopBot)) => Get(Int|TopBot) =\n"
        "    | a => b -> do\n"
        "        put 8 on a\n"
        "        a |=| b\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        righty( | b => )\n"
        "        linker( | a => b )\n"
        "        lefty( | => a )\n"),
}


# A checked program whose string payloads hold an ANSI escape and a `\n`,
# which the trace prints unescaped: on a pipe the CLI strips the escape
# from the trace and from `dump-ast`'s program text (the Console's stdout
# keeps it), and the `\n` splits one event over two lines.  Pinned as
# today's bytes, before any change to the trace format.
ESCAPES = {
    "escapes.campl": (
        "proc speak :: | Console => =\n"
        "    | console => -> do\n"
        "        hput ConsolePut on console\n"
        "        put \"a\x1b[31mb\" on console\n"
        "        hput ConsolePut on console\n"
        "        put \"a\\nb\" on console\n"
        "        hput ConsoleClose on console\n"
        "        halt console\n"
        "\nproc run =\n"
        "    | console => -> speak( | console => )\n"),
}


# Checked programs that pass an inline stored process, whose value
# parameter `n` goes unused, for another process to run with `use`: the
# corpus stores only named processes.  The first sends it on a channel;
# the others pass it as a call's or a use's value argument, and write its
# body as an `on` block, so desugaring rebuilds that call or use.
STORED = {
    "stored_inline.campl": (
        "proc sender =\n"
        "    | => ch -> do\n"
        "        put store(proc anon :: Int | Console => =\n"
        "            n | c => -> do\n"
        "                hput ConsolePut on c\n"
        "                put \"stored\" on c\n"
        "                hput ConsoleClose on c\n"
        "                halt c\n"
        "            ) on ch\n"
        "        halt ch\n"
        "\nproc runner :: | Put(Store(Int|Console=>)|TopBot), Console => =\n"
        "    | ch, console => -> do\n"
        "        get sp on ch\n"
        "        close ch\n"
        "        use(sp)( 1 | console => )\n"
        "\nproc run =\n"
        "    | console => -> plug\n"
        "        sender( | => ch )\n"
        "        runner( | ch, console => )\n"),
    "stored_call.campl": (
        "proc runner :: Store(Int|Console=>) | Console => =\n"
        "    sp | console => -> use(sp)( 1 | console => )\n"
        "\nproc run =\n"
        "    | console => -> runner( store(proc anon :: Int | Console => =\n"
        "            n | c => -> on c do\n"
        "                hput ConsolePut\n"
        "                put \"called\"\n"
        "                hput ConsoleClose\n"
        "                halt\n"
        "            ) | console => )\n"),
    "stored_use.campl": (
        "proc runner :: Store(Int|Console=>) | Console => =\n"
        "    sp | console => -> use(sp)( 2 | console => )\n"
        "\nproc run =\n"
        "    | console => -> use(store(runner))( store(proc anon ::\n"
        "            Int | Console => =\n"
        "            n | c => -> on c do\n"
        "                hput ConsolePut\n"
        "                put \"used\"\n"
        "                hput ConsoleClose\n"
        "                halt\n"
        "            ) | console => )\n"),
}


# Benchmark programs: the only inputs that interleave a thousand race
# draws with plug, fork and split (churn), and a 200-stage network
# (pipeline).
_PROGRAMS = load_perfbench("programs")
PERFBENCH = {
    "churn0.campl": _PROGRAMS.churn(1).sources["churn0"],
    "pipeline0.campl": _PROGRAMS.pipeline(1).sources["pipeline0"],
}
PERFBENCH_SEEDS = {"churn0.campl": (0, 5), "pipeline0.campl": (0,)}


# Generated programs (`tests/genprog.py`), each plain and with one plugged
# channel routed through a |=| forwarder: trees of up to six processes
# whose checked runs put and get values, fork, split and close.
GENERATED = {}
for _s in range(10):
    GENERATED[f"gen{_s}.campl"] = roundtrip_print(gen_program(_s))
    GENERATED[f"gen{_s}_fwd.campl"] = roundtrip_print(
        with_forwarder(gen_program(_s), _s % 2 == 0, _s))


# Every golden program by file name, for `populate` and the front-end
# differential (`tests/test_differential.py`), which names the ones it
# covers.
PROGRAMS = {**LINKS, **ARMS, **MESSAGES, **ESCAPES, **STORED, **FAULTS,
            **ARMS_FAULTS, **PERFBENCH, **GENERATED}


def cases() -> dict[str, list[str]]:
    """Case id -> CLI arguments, relative to a directory holding the
    corpus, the fault programs and `stdin.txt`."""
    out: dict[str, list[str]] = {}
    for f in sorted(p.name for p in CORPUS.glob("*.campl")):
        for s in SEEDS:
            out[f"run/{f}/seed{s}"] = ["run", f, "--trace", "--seed", str(s),
                                       "--stdin", "stdin.txt"]
        out[f"dump-ast/{f}"] = ["dump-ast", f]
        out[f"check-json/{f}"] = ["check", f, "--json-diagnostics"]
    for s in range(3):
        out[f"unchecked-deadlock/appendix_b.campl/seed{s}"] = [
            "run", "appendix_b.campl", "--unchecked", "--trace", "--seed",
            str(s), "--stdin", "stdin.txt"]
    for f in sorted(LINKS):
        for s in range(3):
            out[f"run-link/{f}/seed{s}"] = ["run", f, "--trace", "--seed",
                                            str(s), "--stdin", "stdin.txt"]
    for f in sorted(ARMS):
        for s in ARMS_SEEDS:
            out[f"run-arms/{f}/seed{s}"] = ["run", f, "--trace", "--seed",
                                            str(s), "--stdin", "stdin.txt"]
    for f in sorted(MESSAGES):
        for s in range(3):
            out[f"run-msg/{f}/seed{s}"] = ["run", f, "--trace", "--seed",
                                           str(s), "--stdin", "stdin.txt"]
    for f in sorted(ESCAPES):
        out[f"run-escape/{f}"] = ["run", f, "--trace", "--stdin",
                                  "stdin.txt"]
        out[f"dump-ast-escape/{f}"] = ["dump-ast", f]
    for f in sorted(STORED):
        out[f"run-stored/{f}"] = ["run", f, "--trace", "--stdin",
                                  "stdin.txt"]
    for f in sorted(PERFBENCH):
        for s in PERFBENCH_SEEDS[f]:
            out[f"run-perfbench/{f}/seed{s}"] = [
                "run", f, "--trace", "--seed", str(s), "--stdin",
                "stdin.txt"]
    for f in sorted(GENERATED):
        out[f"run-gen/{f}"] = ["run", f, "--trace", "--stdin", "stdin.txt"]
    for f in sorted({**FAULTS, **ARMS_FAULTS}):
        out[f"unchecked-fault/{f}"] = ["run", f, "--unchecked", "--trace",
                                       "--stdin", "stdin.txt"]
    out["step-limit/listing7.campl"] = ["run", "listing7.campl", "--trace",
                                        "--max-steps", "5", "--stdin",
                                        "stdin.txt"]
    return out


# The CLI's own surface: help screens and usage errors, each kept as its
# exit code, stdout and stderr, with the usage name `campl` and 80 columns.
# Run in the golden directory, where `.` is a directory and `no_such.*` is
# missing.
SURFACE = {
    "help": ["--help"],
    "help-check": ["check", "--help"],
    "help-run": ["run", "--help"],
    "help-dump-ast": ["dump-ast", "--help"],
    "help-over-a-bad-value": ["run", "--seed", "x", "--help"],
    "help-after-double-dash": ["check", "--", "--help"],
    "no-arguments": [],
    "unknown-command": ["frobnicate", "listing1.campl"],
    "unknown-command-near-one": ["chek", "listing1.campl"],
    "missing-command": ["--"],
    "option-as-command": ["--", "--help"],
    "help-with-a-value": ["--help=1"],
    "unknown-group-option": ["--verbose", "check", "listing1.campl"],
    "unknown-option": ["run", "listing1.campl", "--sed", "1"],
    "unknown-option-near-one": ["check", "listing1.campl", "--json"],
    "unknown-short-option": ["check", "-x", "listing1.campl"],
    "missing-file": ["check", "no_such.campl"],
    "directory-file": ["dump-ast", "."],
    "missing-argument": ["check"],
    "extra-argument": ["check", "listing1.campl", "listing2.campl"],
    "extra-arguments": ["dump-ast", "listing1.campl", "a", "b"],
    "seed-negative": ["run", "listing1.campl", "--seed", "-1"],
    "seed-not-an-integer": ["run", "listing1.campl", "--seed", "x"],
    "seed-without-a-value": ["run", "listing1.campl", "--seed"],
    "max-steps-zero": ["run", "listing1.campl", "--max-steps", "0"],
    "trace-with-a-value": ["run", "listing1.campl", "--trace=1"],
    "stdin-missing": ["run", "listing1.campl", "--stdin", "no_such.txt"],
    "options-before-the-file": ["run", "no_such.campl", "--seed", "x"],
    "values-after-equals": ["run", "--seed=3", "--max-steps=9", "--",
                            "listing1.campl"],
}
SURFACE_GOLDENS = HERE / "surface_goldens.json"


def surface(args: list[str]) -> dict:
    r = Runner().invoke(main, args)
    return {"code": r.exit_code, "stdout": r.stdout, "stderr": r.stderr}


def surface_of_module_run() -> dict:
    """`python -m campl.cli --help`, run as a fresh process."""
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "campl.cli", "--help"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path,
                               "COLUMNS": "80"})
    return {"code": done.returncode, "stdout": done.stdout,
            "stderr": done.stderr}


def populate(directory: pathlib.Path) -> None:
    for p in CORPUS.glob("*.campl"):
        shutil.copy(p, directory / p.name)
    for name, text in PROGRAMS.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "stdin.txt").write_text(STDIN_SCRIPT, encoding="utf-8")


def digest(args: list[str]) -> str:
    r = Runner().invoke(main, args)
    crashed = ("" if r.exception is None or isinstance(r.exception,
                                                        SystemExit)
               else type(r.exception).__name__)
    blob = f"{r.exit_code}\n{crashed}\n{r.stdout}\0{r.stderr}"
    return hashlib.sha256(blob.encode()).hexdigest()


EXPECTED = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory) -> pathlib.Path:
    d = tmp_path_factory.mktemp("goldens")
    populate(d)
    return d


def test_goldens_cover_every_case():
    assert sorted(EXPECTED) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_golden_digest(case, golden_dir, monkeypatch):
    monkeypatch.chdir(golden_dir)
    assert digest(cases()[case]) == EXPECTED.get(case)


EXPECTED_SURFACE = json.loads(SURFACE_GOLDENS.read_text()) \
    if SURFACE_GOLDENS.exists() else {}


def test_surface_goldens_cover_every_case():
    assert sorted(EXPECTED_SURFACE) == sorted([*SURFACE, "python-m-help"])


@pytest.mark.parametrize("case", sorted(SURFACE))
def test_surface_golden(case, golden_dir, monkeypatch):
    monkeypatch.chdir(golden_dir)
    monkeypatch.setenv("COLUMNS", "80")
    assert surface(SURFACE[case]) == EXPECTED_SURFACE.get(case)


def test_module_run_names_itself_in_its_help():
    assert surface_of_module_run() == EXPECTED_SURFACE.get("python-m-help")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        populate(pathlib.Path(tmp))
        home = os.getcwd()
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            table = {case: digest(args) for case, args in cases().items()}
            texts = {case: surface(args) for case, args in SURFACE.items()}
        finally:
            os.chdir(home)
    texts["python-m-help"] = surface_of_module_run()
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDENS}", file=sys.stderr)
    SURFACE_GOLDENS.write_text(json.dumps(texts, indent=1, sort_keys=True)
                               + "\n")
    print(f"wrote {len(texts)} surfaces to {SURFACE_GOLDENS}",
          file=sys.stderr)
