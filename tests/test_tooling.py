"""The benchmark's per-layer tracer patches campl by attribute name, so a
refactor that drops or renames one of those names breaks the benchmark
with an AttributeError, and its hand-driven run loop must replay the
machine's own.  These tests load the tracer from its file, check every
name it reaches, and compare the traces of both loops."""

import pytest

import campl.runtime
from campl.checker import check_program
from campl.lexer import tokenize
from campl.parser import parse_source
from campl.runtime import Machine, boot
from campl.services import ServiceConfig
from conftest import corpus_text, load_perfbench
from test_runtime import FORWARDER_CHAIN


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
                                  FORWARDER_CHAIN],
                         ids=["listing7", "forwarder_chain"])
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
