"""The incremental topology monitor against its full reference.

`Machine.assert_invariants` checks only what the last step touched;
`Machine.check_invariants` scans the whole network.  On every state these
tests reach, both must pass or both must raise the same fault.
"""

import random

import pytest

from campl.checker import check_program
from campl.diagnostics import ParseFailure
from campl.elaborate import prepare
from campl.parser import parse_source
from campl.printer import roundtrip_print
from campl.runtime import BootError, Machine, MachineFault, boot
from campl.services import ScriptExhausted, ServiceConfig
from conftest import (
    CORPUS, assert_monitor_agrees, assert_schedule_agrees, load_perfbench,
)
from genprog import gen_program, with_forwarder
from test_goldens import FAULTS, STDIN_SCRIPT


def run_unchecked_watched(text: str, seed: int,
                          max_steps: int = 5000) -> str | None:
    """Boot `text` without the checker and step it as `campl run
    --unchecked` would, with the monitor and its reference compared
    before every step.  Returns the fault that ended the run, if any."""
    try:
        program = prepare(parse_source(text))
        machine = boot(program, seed, ServiceConfig.from_script(
            STDIN_SCRIPT.splitlines()))
    except (ParseFailure, BootError):
        return None
    for _ in range(max_steps):
        try:
            assert_monitor_agrees(machine)
        except MachineFault as e:
            return str(e)
        p = assert_schedule_agrees(machine)
        if p is None:
            return None
        try:
            machine.step(p)
        except (MachineFault, ScriptExhausted) as e:
            return str(e)
    return None


def _line_drops(name: str):
    lines = (CORPUS / name).read_text(encoding="utf-8").splitlines(
        keepends=True)
    for i, line in enumerate(lines):
        if line.strip():
            yield i + 1, "".join(lines[:i] + lines[i + 1:])


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.campl")))
def test_monitor_agrees_on_unchecked_line_drops(name, seed):
    for line, text in _line_drops(name):
        try:
            run_unchecked_watched(text, seed)
        except AssertionError as e:
            raise AssertionError(f"{name} without line {line}, seed "
                                 f"{seed}: {e}") from None


MONITOR_FAULTS = {
    "cycle_plug.campl": "CycleFound: process network contains a cycle "
                        "through channel(s) 1",
    "conservation_pending.campl": "Conservation: live channel l#1 has an "
                                  "unowned end",
    "conservation_linked.campl": "Conservation: live channel l#2 has an "
                                 "unowned end",
    "link_cycle.campl": "CycleFound: process network contains a cycle "
                        "through channel(s) 1",
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_monitor_agrees_on_the_fault_goldens(name):
    fault = run_unchecked_watched(FAULTS[name], 0)
    assert fault is not None
    if name in MONITOR_FAULTS:
        assert fault == MONITOR_FAULTS[name]


@pytest.fixture
def full_checks(monkeypatch):
    """The step counts at which the full reference ran."""
    seen = []
    reference = Machine.check_topology

    def counted(machine, cids=None):
        if cids is None:
            seen.append(machine.steps)
        return reference(machine, cids)

    monkeypatch.setattr(Machine, "check_topology", counted)
    return seen


def test_full_check_runs_once_through_forwarders(full_checks):
    # Fork, split, plug and |=| steps, with pending ends moved by |=|, all
    # pass their local checks.
    for seed in range(40):
        text = roundtrip_print(with_forwarder(gen_program(seed), seed % 2,
                                              seed))
        m = boot(check_program(parse_source(text)).exec_program, seed,
                 ServiceConfig.from_script([]))
        full_checks.clear()
        assert m.run_to_completion().done
        assert full_checks == [0], f"seed {seed}:\n{text}"


def test_full_check_runs_once_on_a_pipeline(full_checks):
    # 50 forward stages: the full scan would visit every live channel on
    # every step; the monitor runs it at the first check only.
    programs = load_perfbench("programs")
    msgs = ["alpha", "beta", "gamma"]
    text = programs.pipeline_source(random.Random(0), 50, msgs)
    config = ServiceConfig.from_script([])
    m = boot(check_program(parse_source(text)).exec_program, 0, config)
    outcome = m.run_to_completion()
    assert outcome.done and config.outputs == msgs
    assert outcome.steps > 500
    assert full_checks == [0]


# `twice` receives x's end as both `a` and `b` (step 2); its plug hands
# the two names to different children, so `left` forks an end that
# `right` owns.  From that call on, every check is the full one.
ALIASED = ("proc twice =\n"
           "    | a, b => -> plug\n"
           "        left( | a => )\n"
           "        right( | b => )\n"
           "\nproc left =\n"
           "    | a => -> fork a as\n"
           "        l -> halt l\n"
           "        r -> halt r\n"
           "\nproc right =\n"
           "    | b => -> do\n"
           "        get v on b\n"
           "        halt b\n"
           "\nproc talker =\n"
           "    | => x -> split x into p, q\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        talker( | => x )\n"
           "        twice( | x, x => )\n")


def test_one_end_under_two_names_turns_local_checks_off(full_checks):
    assert run_unchecked_watched(ALIASED, 0) == \
        "IllegalCommand: channel 'b' is gone"
    full_checks.clear()
    m = boot(prepare(parse_source(ALIASED)), 0,
             ServiceConfig.from_script([]))
    with pytest.raises(MachineFault):
        m.run_to_completion()
    assert m.steps == 8 and full_checks == [0, 3, 4, 5, 6, 7, 8]
