"""The benchmark's per-layer tracer patches campl by attribute name, so a
refactor that drops or renames one of those names breaks the benchmark
with an AttributeError, and its hand-driven run loop must replay the
machine's own.  These tests load the tracer from its file, check every
name it reaches, and compare the traces of both loops.  A last test holds
the machine to its budget of Python calls per step."""

import sys

import pytest

import campl.runtime
from campl.checker import check_program
from campl.lexer import tokenize
from campl.parser import parse_source
from campl.runtime import Machine, boot
from campl.services import ServiceConfig
from conftest import corpus_text, load_perfbench
from test_runtime import FORWARDER_CHAIN, churn_text


TRACER = load_perfbench("tracer")


@pytest.mark.parametrize("layer", sorted(TRACER.TIMED))
def test_timed_layer_names_exist(layer):
    obj, attr = TRACER.TIMED[layer]
    assert callable(getattr(obj, attr))


def test_tracer_times_the_lexer_inside_parse_source():
    # The tracer patches `campl.lexer.tokenize`; the parser must reach the
    # lexer through that module attribute for the span to see it.
    src = corpus_text("listing7.campl")
    tracer = TRACER.Tracer()
    with tracer.installed():
        parse_source(src)
    assert tracer.busy["lexer.tokenize"] > 0
    assert tracer.counts["tokens"] == len(tokenize(src))


@pytest.mark.parametrize("attr", ["run_to_completion", "enabled",
                                  "assert_invariants", "pick", "step",
                                  "waiting_on"])
def test_machine_methods_the_tracer_drives_exist(attr):
    assert callable(getattr(Machine, attr))


def test_tracer_installs_and_restores_its_patches():
    originals = (Machine.run_to_completion, Machine.enabled,
                 campl.runtime.resolve_race)
    with TRACER.Tracer().installed():
        pass
    assert (Machine.run_to_completion, Machine.enabled,
            campl.runtime.resolve_race) == originals


@pytest.mark.parametrize("text", [corpus_text("listing7.campl"),
                                  FORWARDER_CHAIN, churn_text(12)],
                         ids=["listing7", "forwarder_chain", "churn"])
def test_tracer_loop_replays_run_to_completion(text):
    # The benchmark drives assert_invariants, pick and step by hand; its
    # trace must be the one the machine's own loop produces.
    program = check_program(parse_source(text)).exec_program
    plain = boot(program, services=ServiceConfig.from_script([])
                 ).run_to_completion()
    tracer = TRACER.Tracer()
    with tracer.installed():
        traced = boot(program, services=ServiceConfig.from_script([])
                      ).run_to_completion()
    assert (traced.kind, traced.steps) == (plain.kind, plain.steps)
    assert plain.done
    assert tracer.collect_machines() == [TRACER.trace_digest(plain.trace)]


def test_machine_steps_stay_within_their_call_budget():
    # Python-level calls (`sys.setprofile` "call" events) per machine step
    # on a 100-message churn run, seed 0: 14.61 before the step's own
    # bookkeeping was cut (45,410 calls over 3,109 steps; 14.58 on the
    # benchmark's 1000-message `churn0`), 10.90 after (33,883 calls).  The
    # count is exact for a given interpreter, so a rise means new per-step
    # calls.
    program = check_program(parse_source(churn_text(100))).exec_program
    machine = boot(program, services=ServiceConfig.from_script([]))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(count)
    try:
        outcome = machine.run_to_completion()
    finally:
        sys.setprofile(saved)
    assert outcome.done and outcome.steps == 3109
    assert calls / outcome.steps <= 11.0, f"{calls} calls"
