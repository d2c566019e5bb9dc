"""The incremental topology monitor against its full reference.

On a checked machine, `Machine.assert_invariants` checks only what the
last step touched; `Machine.check_invariants` scans the whole network.  On
every state these tests reach, both must pass or both must raise the same
fault.  An unchecked machine makes the full check before every step.
"""

import random

import pytest

from campl import runtime
from campl.checker import check_program
from campl.diagnostics import CheckFailure, ParseFailure
from campl.elaborate import prepare
from campl.model import Fork
from campl.parser import parse_source
from campl.printer import roundtrip_print
from campl.runtime import BootError, EndState, Machine, MachineFault, boot
from campl.services import ScriptExhausted, ServiceConfig
from conftest import (
    CORPUS, assert_monitor_agrees, assert_schedule_agrees, corpus_text,
    line_drops, load_perfbench, run_watched,
)
from genprog import gen_program, with_forwarder
from test_goldens import FAULTS, STDIN_SCRIPT
from test_traversal import _fork_tower


def run_text_watched(text: str, seed: int,
                     max_steps: int = 5000) -> str | None:
    """Boot `text` checked if `check_program` accepts it and unchecked
    otherwise, and step it with the monitor and its reference compared
    before every step.  Returns the fault that ended the run, if any."""
    try:
        source = parse_source(text)
        try:
            program, checked = check_program(source).exec_program, True
        except CheckFailure:
            program, checked = prepare(source), False
        machine = boot(program, seed, ServiceConfig.from_script(
            STDIN_SCRIPT.splitlines()), checked=checked)
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


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.campl")))
def test_monitor_agrees_on_unchecked_line_drops(name, seed):
    for line, text in line_drops(corpus_text(name)):
        try:
            run_text_watched(text, seed)
        except AssertionError as e:
            raise AssertionError(f"{name} without line {line}, seed "
                                 f"{seed}: {e}") from None


def test_some_line_drops_run_checked():
    # The variants the checker accepts run on the local checks, which the
    # line-drop test then compares with the reference.
    accepted = 0
    for path in CORPUS.glob("*.campl"):
        for _, text in line_drops(corpus_text(path.name)):
            try:
                check_program(parse_source(text))
            except (ParseFailure, CheckFailure):
                continue
            accepted += 1
    assert accepted >= 10


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
    fault = run_text_watched(FAULTS[name], 0)
    assert fault is not None
    if name in MONITOR_FAULTS:
        assert fault == MONITOR_FAULTS[name]


@pytest.mark.parametrize("name", sorted(MONITOR_FAULTS))
def test_local_checks_flag_the_monitor_fault_goldens(name, monkeypatch):
    # Booted as if checked, the machine makes its local checks on these
    # faulting programs; the first check that flags must be the one at
    # which the reference raises, with the same text.
    flags = []
    local = Machine._step_checks_pass

    def recorded(machine):
        passed = local(machine)
        if not passed:
            flags.append(machine.steps)
        return passed

    monkeypatch.setattr(Machine, "_step_checks_pass", recorded)
    m = boot(prepare(parse_source(FAULTS[name])), 0,
             ServiceConfig.from_script(STDIN_SCRIPT.splitlines()),
             checked=True)
    for _ in range(1000):
        try:
            assert_monitor_agrees(m)
        except MachineFault as e:
            assert str(e) == MONITOR_FAULTS[name]
            break
        m.step(m.pick())
    else:
        raise AssertionError("no fault")
    assert flags == [m.steps]


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


# `_fork_tower`'s tower with its splitter `final` called from a process
# that `mid`'s plug creates after the tower's first fork.  The tower's
# second fork then runs first, on a carrier whose far end is still pending
# through the first carrier.
DEFERRED_SPLITTER = ("proc mid =\n"
                     "    | t => -> plug\n"
                     "        hold( | t, c => )\n"
                     "        nop( | => c )\n"
                     "\nproc hold =\n"
                     "    | t, c => -> do\n"
                     "        close c\n"
                     "        final( | t => )\n"
                     "\nproc nop =\n"
                     "    | => c -> halt c\n"
                     "\nproc run =\n"
                     "    | => -> plug\n"
                     "        tower( | => t )\n"
                     "        mid( | t => )\n")


def _deferred_tower(depth: int) -> str:
    tower = _fork_tower(depth)
    return tower[:tower.index("proc run")] + DEFERRED_SPLITTER


@pytest.mark.parametrize("make, depth, steps, pending", [
    ("frontend", 12, 118, 0), ("frontend", 40, 286, 0),
    ("deferred", 12, 83, 1),
])
def test_fork_towers_are_watched_to_the_end(make, depth, steps, pending,
                                             monkeypatch):
    # A checked fork records nothing for its local check: on a forest, the
    # far holder of its carrier is neither the forker nor a child, also
    # when it is reached through an end still pending.  In the `frontend`
    # towers `final` has a lower pid than the tower's children, so it
    # splits each carrier before the next fork; the deferred one's cannot.
    programs = load_perfbench("programs")
    text = (programs.frontend_source(random.Random(3), 4, depth)
            if make == "frontend" else _deferred_tower(depth))
    far_pending = []
    fork = runtime._HANDLERS[Fork]

    def spied(machine, p, cmd):
        far = p.chan_env[cmd.chan].peer
        far_pending.append(type(far.owner) is EndState)
        return fork(machine, p, cmd)

    monkeypatch.setitem(runtime._HANDLERS, Fork, spied)
    m = boot(check_program(parse_source(text)).exec_program, 0,
             ServiceConfig.from_script([]))
    run_watched(m)
    assert not m.processes and not m.channels and m.steps == steps
    assert len(far_pending) == depth and sum(far_pending) == pending


# `twice` receives x's end as both `a` and `b` (step 2); its plug hands
# the two names to different children, so `left` forks an end that
# `right` owns.  The checker rejects it (see the premise test below).
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


def test_an_unchecked_machine_makes_the_full_check_every_step(full_checks):
    assert run_text_watched(ALIASED, 0) == \
        "IllegalCommand: channel 'b' is gone"
    full_checks.clear()
    m = boot(prepare(parse_source(ALIASED)), 0,
             ServiceConfig.from_script([]), checked=False)
    with pytest.raises(MachineFault):
        m.run_to_completion()
    assert m.steps == 8 and full_checks == list(range(9))


# Each program leaves an end owned by a live process under no name; once
# that process ends, the end has no owner.
LEFT_UNDER_NO_NAME = {
    "repeated-parameter": ("proc f =\n"
                           "    | a, a => -> close a\n"
                           "\nproc run =\n"
                           "    | => -> plug\n"
                           "        f( | x, y => )\n"
                           "        on x do\n"
                           "            halt\n"
                           "        on y do\n"
                           "            halt\n"),
    "call-drops-an-end": ("proc f =\n"
                          "    | a => -> close a\n"
                          "\nproc g =\n"
                          "    | a, b => -> f( | a => )\n"
                          "\nproc run =\n"
                          "    | => -> plug\n"
                          "        g( | x, y => )\n"
                          "        on x do\n"
                          "            halt\n"
                          "        on y do\n"
                          "            halt\n"),
    "link-with-another-end": ("proc g =\n"
                              "    | a, c => b -> a |=| b\n"
                              "\nproc run =\n"
                              "    | => -> plug\n"
                              "        g( | x, y => z )\n"
                              "        on x do\n"
                              "            halt\n"
                              "        on y do\n"
                              "            halt\n"
                              "        on z do\n"
                              "            close\n"),
    # The end `g` drops is one that `fwd`'s |=| moves, so the fault names
    # the fused channel, which carries both labels.
    "link-moves-a-dropped-end": ("proc f =\n"
                                 "    | a => -> close a\n"
                                 "\nproc g =\n"
                                 "    | a, b => -> f( | a => )\n"
                                 "\nproc fwd =\n"
                                 "    | u => v -> u |=| v\n"
                                 "\nproc run =\n"
                                 "    | => -> plug\n"
                                 "        fwd( | w => v )\n"
                                 "        g( | x, w => )\n"
                                 "        on x do\n"
                                 "            halt\n"
                                 "        on v do\n"
                                 "            halt\n"),
    "neg-onto-a-held-name": ("proc g =\n"
                             "    | a, b => -> do\n"
                             "        neg a as b\n"
                             "        close b\n"
                             "\nproc run =\n"
                             "    | => -> plug\n"
                             "        g( | x, y => )\n"
                             "        on x do\n"
                             "            halt\n"
                             "        on y do\n"
                             "            halt\n"),
    "split-onto-a-held-name": ("proc h =\n"
                               "    | => p -> fork p as\n"
                               "        l -> close l\n"
                               "        r -> close r\n"
                               "\nproc g =\n"
                               "    | p, q => -> do\n"
                               "        split p into a, q\n"
                               "        halt a\n"
                               "\nproc run =\n"
                               "    | => -> plug\n"
                               "        h( | => p )\n"
                               "        g( | p, q => )\n"
                               "        on q do\n"
                               "            halt\n"),
}


@pytest.mark.parametrize("name,chan", [
    ("repeated-parameter", "x#0"), ("call-drops-an-end", "y#1"),
    ("link-with-another-end", "y#1"), ("link-moves-a-dropped-end", "w|=|v#3"),
    ("neg-onto-a-held-name", "y#1"), ("split-onto-a-held-name", "q#1"),
])
def test_an_end_left_with_an_ended_process_is_unowned(name, chan):
    # The full check counts an end owned by a pid that has ended as
    # unowned.
    assert run_text_watched(LEFT_UNDER_NO_NAME[name], 0) == \
        f"Conservation: live channel {chan} has an unowned end"


@pytest.mark.parametrize("name,kind", [
    ("repeated-parameter", "LinearityReuse"),
    ("call-drops-an-end", "LinearityDrop"),
    ("link-with-another-end", "LinearityDrop"),
    ("link-moves-a-dropped-end", "UnificationFailure"),
    ("neg-onto-a-held-name", "UnificationFailure"),
    ("split-onto-a-held-name", "LinearityReuse"),
    ("aliased", "UnificationFailure"),
])
def test_the_checker_rejects_every_aliasing_program(name, kind):
    # A checked machine's local checks and node-keyed plans rest on this:
    # no accepted program binds one end to two names or leaves an end
    # under no name.
    text = ALIASED if name == "aliased" else LEFT_UNDER_NO_NAME[name]
    with pytest.raises(CheckFailure) as failure:
        check_program(parse_source(text))
    assert failure.value.errors[0].kind == kind
