import functools
import importlib.util
import pathlib
import sys

import pytest

from campl.elaborate import _free_body
from campl.model import map_command
from campl.runtime import (
    DEFAULT_MAX_STEPS, ConsoleEndpoint, Machine, MachineFault, Outcome,
    OutcomeKind,
)
from campl.services import ScriptExhausted

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


def free_chans(body) -> frozenset[str]:
    """Channel names a (desugared) command sequence uses from its
    environment, every nested body's set computed afresh: the reference
    for the memo `ExecProgram.free_chans`."""
    return _free_body(body, free_chans)


def sub_bodies(cmd) -> tuple:
    """The command sequences nested directly inside `cmd`, in order: the
    ones `map_command` visits."""
    bodies: list = []
    map_command(cmd, lambda b: bodies.append(b) or b, lambda e: e)
    return tuple(bodies)


def command_count(body) -> int:
    """The command nodes in `body`, nested bodies included."""
    return sum(1 + sum(map(command_count, sub_bodies(cmd))) for cmd in body)


@functools.cache
def load_perfbench(name: str):
    """Load `perfbench/<name>.py` by path; `perfbench` is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def seated(machine, e) -> bool:
    """`e` is one end of the channel its `cid` names, whose table entry is
    `e` or its `peer`; the peer sits in the same channel under the same
    label and faces it back.  An end that fills both places (after an
    unchecked `x |=| x`) is its own peer."""
    peer = e.peer
    return (machine.channels[e.cid] in (e, peer) and peer.cid == e.cid
            and peer.label == e.label and peer.peer is e)


def assert_ownership_agrees(machine) -> None:
    """Every live process has a next command; every end it binds sits
    where it says in the channel table, facing its peer, is owned by that
    process and is bound by no other process; and every end of a live
    channel resolves to a live process or a service (any owner that is not
    a pid)."""
    holder: dict = {}
    for pid, p in machine.processes.items():
        assert 0 <= p.at < len(p.body), \
            f"pid {pid} is at {p.at} of a {len(p.body)}-command body"
        for name, e in p.chan_env.items():
            assert holder.setdefault(e, pid) == pid, \
                f"an end of #{e.cid} is bound by pids {holder[e]} and {pid}"
            assert seated(machine, e), \
                f"pid {pid} binds {name!r} to an end not seated in #{e.cid}"
            assert e.owner == pid, \
                f"pid {pid} binds {name!r} to an end of #{e.cid}, which it " \
                f"does not own"
    for cid, first in machine.channels.items():
        if first.closed or first.peer.closed:
            continue
        for end, e in enumerate((first, first.peer)):
            owner = machine.resolve_owner(e.owner)
            if owner is None or isinstance(owner, int):
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
    channel sits there owned by its Console endpoint, and `pick` returns
    the first enabled process in sorted pid order.  Returns that pick."""
    assert list(machine.processes) == sorted(machine.processes)
    for e in machine.services:
        if e.cid in machine.channels:
            assert seated(machine, e) and type(e.owner) is ConsoleEndpoint, \
                f"a service end of #{e.cid} is lost"
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


def run_stepwise(machine, max_steps: int = DEFAULT_MAX_STEPS) -> Outcome:
    """`run_to_completion`'s reference: one call each to
    `assert_invariants`, `pick` and `step` per step, under the loop's stop
    rules in the loop's order, as `perfbench/tracer.py` drives them."""
    while True:
        machine.assert_invariants()
        if not machine.processes:
            kind = OutcomeKind.STUCK if machine.channels else OutcomeKind.DONE
            return Outcome(kind, machine.steps, machine.trace, machine)
        p = machine.pick()
        if p is None:
            stuck = {pid: machine.waiting_on(q)
                     for pid, q in sorted(machine.processes.items())}
            return Outcome(OutcomeKind.STUCK, machine.steps, machine.trace,
                           machine, stuck)
        if machine.steps >= max_steps:
            return Outcome(OutcomeKind.STEP_LIMIT, machine.steps,
                           machine.trace, machine)
        machine.step(p)


def assert_loop_matches_stepwise(boot_machine,
                                 max_steps: int = DEFAULT_MAX_STEPS):
    """Run one machine from `boot_machine()` with `run_to_completion` and
    another with `run_stepwise`.  Both end the same way (outcome kind,
    steps and stuck report, or the text of the fault and the steps made
    before it), with the same rendered trace, as retained and as streamed
    to a trace hook, and the same Console output.  Returns how the run
    ended."""
    results = []
    for run in (Machine.run_to_completion, run_stepwise):
        machine = boot_machine()
        streamed = []
        machine.trace_hook = lambda ev: streamed.append(ev.render())
        try:
            out = run(machine, max_steps)
            ended = (out.kind, out.steps, out.stuck)
        except (MachineFault, ScriptExhausted) as e:
            ended = (type(e).__name__, str(e), machine.steps)
        trace = [ev.render() for ev in machine.trace]
        assert streamed == trace
        results.append((ended, trace, list(machine.config.outputs)))
    loop, reference = results
    assert loop[0] == reference[0], f"loop ended {loop[0]}, the " \
        f"stepwise reference {reference[0]}"
    assert loop == reference
    return loop[0]
