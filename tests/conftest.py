import functools
import importlib.util
import pathlib
import sys

import pytest

from campl.runtime import MachineFault

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def line_drops(text: str):
    """`(line, variant)` for each non-blank line of `text`: the line's
    number and `text` without it."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.strip():
            yield i + 1, "".join(lines[:i] + lines[i + 1:])


@functools.cache
def load_perfbench(name: str):
    """Load `perfbench/<name>.py` by path; `perfbench` is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def assert_ownership_agrees(machine) -> None:
    """Every end a live process binds sits where it says in the channel
    table, is owned by that process and is bound by no other process, and
    every end of a live channel resolves to a live process or a service
    (any owner that is not a pid)."""
    holder: dict = {}
    for pid, p in machine.processes.items():
        for name, e in p.chan_env.items():
            assert holder.setdefault(e, pid) == pid, \
                f"#{e.cid}.{e.index} is bound by pids {holder[e]} and {pid}"
            assert machine.channels[e.cid].ends[e.index] is e, \
                f"pid {pid} binds {name!r} to an end not at #{e.cid}." \
                f"{e.index}"
            assert e.owner == pid, \
                f"pid {pid} binds {name!r} to #{e.cid}.{e.index}, which " \
                f"it does not own"
    for cid, ch in machine.channels.items():
        for end, e in enumerate(ch.ends):
            owner = machine.resolve_owner(e.owner)
            if ch.live and (owner is None or isinstance(owner, int)):
                assert owner in machine.processes, \
                    f"live #{cid}.{end} resolves to {owner!r}"


def assert_monitor_agrees(machine) -> None:
    """Run the full reference check and then the incremental monitor on
    the same state: both pass, or both raise the same fault, which is
    raised again."""
    try:
        machine.check_invariants()
        expected = None
    except MachineFault as e:
        expected = str(e)
    try:
        machine.assert_invariants()
    except MachineFault as e:
        assert str(e) == expected, f"monitor raised {e}; the reference " \
            f"{'passed' if expected is None else 'raised ' + expected}"
        raise
    assert expected is None, f"monitor passed; the reference raised " \
        f"{expected}"


def assert_schedule_agrees(machine):
    """The process table is in pid order, every service end still in a
    channel sits there owned by its endpoint, and `pick` returns the first
    enabled process in sorted pid order.  Returns that pick."""
    assert list(machine.processes) == sorted(machine.processes)
    for e, endpoint in machine.services.items():
        ch = machine.channels.get(e.cid)
        if ch is not None:
            assert ch.ends[e.index] is e and e.owner is endpoint, \
                f"service end #{e.cid}.{e.index} is lost"
    p = machine.pick()
    expected = next((machine.processes[pid] for pid in sorted(
        machine.processes) if machine.enabled(machine.processes[pid])), None)
    assert p is expected
    return p


def run_watched(machine, max_steps: int = 50_000) -> None:
    """Step `machine` until no process can move, checking before every
    step that the monitor agrees with its reference, that ownership
    agrees, and that the scheduler picks what a sorted scan would."""
    for _ in range(max_steps):
        assert_monitor_agrees(machine)
        assert_ownership_agrees(machine)
        p = assert_schedule_agrees(machine)
        if p is None:
            return
        machine.step(p)
    raise AssertionError(f"no end after {max_steps} steps")
