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

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDENS = HERE / "goldens.json"
SEEDS = range(10)

# Console input for every `run`: enough lines for any ConsoleGet.
STDIN_SCRIPT = "first line\nsecond line\nthird line\n"

# Unchecked programs that fault at run time (exit 1).  Between them they
# reach every fault message of process invocation.
FAULTS = {
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
    for name, text in FAULTS.items():
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
