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
import sys

import pytest
from click.testing import CliRunner

from campl.cli import main
from conftest import load_perfbench
from test_runtime import (
    FORWARDER_CHAIN, JOINER, SPLIT_AFTER_LINKS, TALKER, link_after_fork,
)

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDENS = HERE / "goldens.json"
SEEDS = range(10)

# Console input for every `run`: enough lines for any ConsoleGet.
STDIN_SCRIPT = "first line\nsecond line\nthird line\n"

# Unchecked programs that fault at run time (exit 1).  Between them they
# reach every fault message of process invocation, and the topology
# monitor's cycle (after a plug and after a |=|) and conservation (a
# fork's pending ends, directly and through a |=|) faults.
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


# Benchmark programs: the only inputs that interleave a thousand race
# draws with plug, fork and split (churn), and a 200-stage network
# (pipeline).
_PROGRAMS = load_perfbench("programs")
PERFBENCH = {
    "churn0.campl": _PROGRAMS.churn(1).sources["churn0"],
    "pipeline0.campl": _PROGRAMS.pipeline(1).sources["pipeline0"],
}
PERFBENCH_SEEDS = {"churn0.campl": (0, 5), "pipeline0.campl": (0,)}


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
    for f in sorted(MESSAGES):
        for s in range(3):
            out[f"run-msg/{f}/seed{s}"] = ["run", f, "--trace", "--seed",
                                           str(s), "--stdin", "stdin.txt"]
    for f in sorted(PERFBENCH):
        for s in PERFBENCH_SEEDS[f]:
            out[f"run-perfbench/{f}/seed{s}"] = [
                "run", f, "--trace", "--seed", str(s), "--stdin",
                "stdin.txt"]
    for f in sorted(FAULTS):
        out[f"unchecked-fault/{f}"] = ["run", f, "--unchecked", "--trace",
                                       "--stdin", "stdin.txt"]
    out["step-limit/listing7.campl"] = ["run", "listing7.campl", "--trace",
                                        "--max-steps", "5", "--stdin",
                                        "stdin.txt"]
    return out


def populate(directory: pathlib.Path) -> None:
    for p in CORPUS.glob("*.campl"):
        shutil.copy(p, directory / p.name)
    for name, text in {**LINKS, **MESSAGES, **FAULTS, **PERFBENCH}.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "stdin.txt").write_text(STDIN_SCRIPT, encoding="utf-8")


def digest(args: list[str]) -> str:
    r = CliRunner().invoke(main, args)
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        populate(pathlib.Path(tmp))
        home = os.getcwd()
        os.chdir(tmp)
        try:
            table = {case: digest(args) for case, args in cases().items()}
        finally:
            os.chdir(home)
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDENS}", file=sys.stderr)
