"""`Machine.run_to_completion` against its stepwise reference, and the
trace view it keeps.

The run loop writes out `assert_invariants`, `pick` and `step` once per
step; `conftest.run_stepwise` calls them.  Every run here must end the
same way both ways, with the same trace and Console output.  The machine
keeps one row per step and `Machine.trace` builds the events when read.
"""

import random

import pytest

from campl.checker import check_program
from campl.diagnostics import CheckFailure, ParseFailure
from campl.elaborate import prepare
from campl.model import ProcDef, SourceProgram
from campl.parser import parse_source
from campl.printer import roundtrip_print
from campl.runtime import (
    BootError, MachineFault, OutcomeKind, Trace, TraceEvent, boot,
)
from campl.services import ServiceConfig
from conftest import (
    CORPUS, assert_loop_matches_stepwise, corpus_text, line_drops,
    load_perfbench, replace, run_watched,
)
from genprog import gen_program, with_forwarder
from test_goldens import (
    ARMS, ARMS_FAULTS, ARMS_SEEDS, FAULTS, LINKS, MESSAGES, STDIN_SCRIPT,
)
from test_monitor import ALIASED, LEFT_UNDER_NO_NAME
from test_runtime import RELEASING, churn_text


def compare(text: str, seed: int, max_steps: int = 5000,
            script: str = STDIN_SCRIPT):
    """Boot `text` checked if `check_program` accepts it and unchecked
    otherwise, with `script` as Console input, and compare the loop with
    the reference on it.  Returns how the run ended, or None when it does
    not parse or boot."""
    try:
        source = parse_source(text)
    except ParseFailure:
        return None
    try:
        program, checked = check_program(source).exec_program, True
    except CheckFailure:
        program, checked = prepare(source), False
    try:
        return assert_loop_matches_stepwise(
            lambda: boot(program, seed, ServiceConfig.from_script(
                script.splitlines()), checked=checked), max_steps)
    except BootError:
        return None


def upstream_pipeline(stages: int, msgs: list[str]) -> str:
    """perfbench's `pipeline_source` with its plug branches reversed, so
    the consumer has the lowest pid and the scheduler passes every blocked
    stage before it finds the one that can move."""
    text = load_perfbench("programs").pipeline_source(
        random.Random(stages), stages, msgs)
    decls = []
    for d in parse_source(text).decls:
        if isinstance(d, ProcDef) and d.name == "run":
            (plug,) = d.body
            d = replace(d, body=(replace(
                plug, branches=plug.branches[::-1]),))
        decls.append(d)
    return roundtrip_print(SourceProgram(tuple(decls)))


UPSTREAM_MSGS = ["alpha", "beta", "gamma"]


# ---------------------------------------------------------------------------
# the loop against the reference

@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.campl")))
def test_loop_matches_stepwise_on_the_corpus(name):
    for seed in range(4):
        assert compare(corpus_text(name), seed) is not None


def test_loop_matches_stepwise_on_the_golden_programs():
    # Faults of the monitor and of the handlers, |=| merges, values, arms
    # that continue, and runs that end with channels left: every way a run
    # can end.
    programs = {**FAULTS, **LINKS, **ARMS, **ARMS_FAULTS, **MESSAGES,
                **RELEASING, **LEFT_UNDER_NO_NAME, "aliased": ALIASED}
    ends = {compare(text, 0)[0] for _, text in sorted(programs.items())}
    assert {OutcomeKind.DONE, OutcomeKind.STUCK, "MachineFault"} <= ends


@pytest.mark.parametrize("seed", ARMS_SEEDS)
def test_loop_matches_stepwise_on_continuing_arms(seed):
    for text in ARMS.values():
        assert compare(text, seed) == (OutcomeKind.DONE, 48, {})


ECHO = ("proc run =\n"
        "    | console => -> do\n"
        "        hput ConsoleGet on console\n"
        "        get line on console\n"
        "        hput ConsolePut on console\n"
        "        put line on console\n"
        "        hput ConsoleClose on console\n"
        "        halt console\n")


@pytest.mark.parametrize("script, ended", [
    ("hi\n", (OutcomeKind.DONE, 6, {})),
    ("", ("ScriptExhausted", "console input script exhausted: a ConsoleGet "
          "had no line to deliver", 1)),
])
def test_loop_matches_stepwise_on_console_input(script, ended):
    assert compare(ECHO, 0, script=script) == ended


def test_loop_matches_stepwise_on_generated_programs():
    for seed in range(60):
        program = gen_program(seed)
        if seed % 3 == 0:
            program = with_forwarder(program, seed % 2, seed)
        ended = compare(roundtrip_print(program), seed)
        assert ended[0] is OutcomeKind.DONE, f"genprog {seed}"


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.campl")))
def test_loop_matches_stepwise_on_unchecked_line_drops(name, seed):
    for line, text in line_drops(corpus_text(name)):
        try:
            compare(text, seed)
        except AssertionError as e:
            raise AssertionError(f"{name} without line {line}, seed "
                                 f"{seed}: {e}") from None


@pytest.mark.parametrize("max_steps", [1, 57, 200])
def test_loop_matches_stepwise_at_a_step_limit(max_steps):
    ended = compare(churn_text(12), 1, max_steps)
    assert ended == (OutcomeKind.STEP_LIMIT, max_steps, {})


def test_loop_matches_stepwise_on_an_upstream_pipeline():
    ended = compare(upstream_pipeline(20, UPSTREAM_MSGS), 0)
    assert ended[0] is OutcomeKind.DONE


def test_upstream_pipeline_is_watched_at_every_step():
    # The consumer has the lowest pid, so the scheduler's first candidate
    # is blocked on almost every step; the monitor, ownership and the
    # scheduler still agree with their references throughout.
    program = check_program(parse_source(
        upstream_pipeline(20, UPSTREAM_MSGS))).exec_program
    config = ServiceConfig.from_script([])
    m = boot(program, 0, config)
    run_watched(m)
    assert not m.processes and not m.channels
    assert config.outputs == UPSTREAM_MSGS
    calls = [(ev.pid, ev.payload) for ev in m.trace if ev.kind == "CALL"]
    assert calls[0] == (1, "consume") and calls[21] == (22, "produce")


# ---------------------------------------------------------------------------
# the trace view

def _churn_run(seed: int = 0, hook=None):
    program = check_program(parse_source(churn_text(3))).exec_program
    m = boot(program, seed, ServiceConfig.from_script([]), hook)
    return m, m.run_to_completion()


def test_trace_is_a_read_only_sequence_of_events():
    m, out = _churn_run()
    trace = m.trace
    assert out.trace is trace and isinstance(trace, Trace)
    assert len(trace) == m.steps == out.steps > 0
    events = list(trace)
    assert all(type(ev) is TraceEvent for ev in events)
    assert [ev.step for ev in events] == list(range(len(trace)))
    for i in (0, 1, len(trace) - 1):
        assert trace[i] == events[i]
        assert trace[i - len(trace)] == events[i]
    with pytest.raises(IndexError):
        trace[len(trace)]
    with pytest.raises(IndexError):
        trace[-len(trace) - 1]
    for cut in (slice(None), slice(3, 9), slice(-4, None), slice(None, -2),
                slice(1, None, 5), slice(None, None, -3), slice(9, 3)):
        assert trace[cut] == events[cut]
        assert all(ev.step == events.index(ev) for ev in trace[cut])
    with pytest.raises(TypeError):
        trace[0] = events[0]
    assert not hasattr(trace, "append")


def test_trace_hook_events_render_as_the_retained_trace():
    streamed = []
    m, out = _churn_run(seed=1, hook=streamed.append)
    assert out.done
    assert [ev.step for ev in streamed] == list(range(m.steps))
    assert [ev.render() for ev in streamed] == \
        [ev.render() for ev in m.trace]
    assert streamed == list(m.trace)


def test_trace_after_a_stuck_run():
    prog = prepare(parse_source(corpus_text("appendix_b.campl")))
    m = boot(prog, services=ServiceConfig.from_script([]), checked=False)
    out = m.run_to_completion()
    assert out.kind is OutcomeKind.STUCK and len(out.stuck) == 2
    assert len(m.trace) == m.steps == out.steps
    assert [ev.step for ev in m.trace] == list(range(m.steps))
    assert m.trace[-1].render() == list(m.trace)[-1].render()


def test_trace_after_a_faulting_run():
    # The step that faults leaves no row: the trace holds the steps made
    # before it, and steps counts them.
    prog = prepare(parse_source(FAULTS["cycle_plug.campl"]))
    m = boot(prog, services=ServiceConfig.from_script([]), checked=False)
    with pytest.raises(MachineFault) as fault:
        m.run_to_completion()
    assert str(fault.value).startswith("CycleFound")
    assert len(m.trace) == m.steps > 0
    assert [ev.step for ev in m.trace] == list(range(m.steps))
    assert m.trace[-1].kind == "PLUG"
