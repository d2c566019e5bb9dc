"""The CLI on generated inputs near the front end's limits.

Each case runs `campl check`, `dump-ast` or `run` in process on one
generated program: the benchmark's `frontend` shapes at about half of the
depths the front end handles (outside pytest, a fork tower of 240 levels
answers and one of 250 ends in a `RecursionError` in the parser; a call
cycle of 900 processes checks), a `Put` spine at `MAX_TYPE_DEPTH` and one
bracket past it, and a protocol with many handles.  Whatever the input, the
exit code is a documented one (0-4, see `campl.cli`), nothing escapes the
command but `SystemExit`, and no output holds a Python `Traceback`; each
case also pins its exit code.

The two `frontend` defects the benchmark keeps are marked as strict
expected failures, so the change that makes the front end answer them
must remove the markers.
"""

import functools
import random

import pytest
from click.testing import CliRunner

from campl.cli import main
from campl.parser import MAX_TYPE_DEPTH
from conftest import load_perfbench
from test_cli import _deep_type

EXIT_CODES = {0, 1, 2, 3, 4}
DEFECT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 4: the front end recurses once per level and "
           "ends in a RecursionError")


def _handles(n: int) -> str:
    """A protocol of `n` value-carrying handles and a stop: a sender sends
    each handle once, and a receiver's hcase has an arm for each."""
    names = [f"H{i}" for i in range(n)]
    lines = ["protocol Wide( | ) => S ="]
    lines += [f"    {h} :: Put(Int|S) => S" for h in names]
    lines += ["    Stop :: TopBot => S",
              "", "proc send :: | => Wide( | ) =", "    | => out -> do"]
    for i, h in enumerate(names):
        lines += [f"        hput {h} on out", f"        put {i} on out"]
    lines += ["        hput Stop on out", "        halt out",
              "", "proc recv :: | Wide( | ) => =", "    | src => ->",
              "        hcase src of"]
    for h in names:
        lines += [f"            {h} -> do", "                get x on src",
                  "                recv( | src => )"]
    lines += ["            Stop -> halt src",
              "", "proc run =", "    | => -> plug",
              "        send( | => c )", "        recv( | c => )"]
    return "\n".join(lines) + "\n"


def _frontend(wide: int, depth: int) -> str:
    return load_perfbench("programs").frontend_source(random.Random(0),
                                                      wide, depth)


SOURCES = {
    "tower-120": lambda: _frontend(2, 120),
    "cycle-450": lambda: _frontend(450, 20),
    # A protocol handle carrying a `Put` spine, and a `run` that prints.
    f"spine-{MAX_TYPE_DEPTH}": lambda: _deep_type(MAX_TYPE_DEPTH),
    f"spine-{MAX_TYPE_DEPTH + 1}": lambda: _deep_type(MAX_TYPE_DEPTH + 1),
    "handles-300": lambda: _handles(300),
    "frontend-n1000-d20": lambda: _frontend(1000, 20),
    "frontend-n20-d300": lambda: _frontend(20, 300),
}


@functools.cache
def _source(name: str) -> str:
    return SOURCES[name]()


def _cases():
    """(input, command, exit code it should give) for every case."""
    for name in ("tower-120", "cycle-450", f"spine-{MAX_TYPE_DEPTH}",
                 "handles-300"):
        for command in ("check", "dump-ast", "run"):
            yield name, command, 0
    for command in ("check", "dump-ast", "run"):
        yield f"spine-{MAX_TYPE_DEPTH + 1}", command, 1
    yield pytest.param("frontend-n1000-d20", "check", 0, marks=DEFECT)
    yield "frontend-n1000-d20", "dump-ast", 0
    yield pytest.param("frontend-n20-d300", "check", 0, marks=DEFECT)
    yield pytest.param("frontend-n20-d300", "dump-ast", 0, marks=DEFECT)


@pytest.mark.parametrize("name, command, code", _cases())
def test_the_cli_answers_a_large_input(name, command, code, tmp_path):
    path = tmp_path / f"{name}.campl"
    path.write_text(_source(name), encoding="utf-8")
    r = CliRunner().invoke(main, [command, str(path)])
    assert r.exception is None or isinstance(r.exception, SystemExit), \
        f"{command} raised {type(r.exception).__name__}"
    assert r.exit_code in EXIT_CODES
    assert "Traceback" not in r.stdout and "Traceback" not in r.stderr
    assert r.exit_code == code, r.stderr[-500:]
