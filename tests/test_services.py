import io

import pytest

from campl.checker import check_program
from campl.elaborate import prepare
from campl.parser import parse_source
from campl.model import StringLit
from campl.runtime import CloseMsg, ConsoleEndpoint, boot
from campl.services import CONSOLE_DECL, ScriptExhausted, ServiceConfig
from conftest import corpus_text


def test_console_declaration_shape():
    assert CONSOLE_DECL.name == "Console"
    assert [h.name for h in CONSOLE_DECL.handles] == [
        "ConsolePut", "ConsoleGet", "ConsoleClose"]


# ---------------------------------------------------------------------------
# endpoint state machine

def test_hello_world_dispatch_sequence():
    cfg = ServiceConfig.from_script([])
    ep = ConsoleEndpoint(cfg)
    assert ep.handle("ConsolePut") is None
    assert ep.handle(StringLit("Hello World!")) is None
    assert ep.handle("ConsoleClose") is None
    assert ep.handle(CloseMsg()) is None
    assert ep.closed
    assert cfg.outputs == ["Hello World!"]


def test_console_get_pops_script_lines():
    cfg = ServiceConfig.from_script(["hi"])
    ep = ConsoleEndpoint(cfg)
    assert ep.handle("ConsoleGet") == StringLit("hi")
    with pytest.raises(ScriptExhausted):
        ep.handle("ConsoleGet")


def test_console_get_exhausted_on_empty_script():
    ep = ConsoleEndpoint(ServiceConfig.from_script([]))
    with pytest.raises(ScriptExhausted):
        ep.handle("ConsoleGet")


def test_echo_stream_receives_lines():
    sink = io.StringIO()
    cfg = ServiceConfig.from_script([], echo=sink)
    ep = ConsoleEndpoint(cfg)
    ep.handle("ConsolePut")
    ep.handle(StringLit("streamed"))
    assert sink.getvalue() == "streamed\n"


# ---------------------------------------------------------------------------
# end-to-end console behaviour

def run_with_script(name_or_src, script, from_corpus=True):
    src = corpus_text(name_or_src) if from_corpus else name_or_src
    prog = parse_source(src)
    check_program(prog)
    cfg = ServiceConfig.from_script(script)
    m = boot(prepare(prog), services=cfg)
    out = m.run_to_completion()
    return out, cfg


ECHO_ONCE = (
    "proc run =\n"
    "    | console => ->\n"
    "        on console do\n"
    "            hput ConsoleGet\n"
    "            get line\n"
    "            hput ConsolePut\n"
    "            put line\n"
    "            hput ConsoleClose\n"
    "            halt\n")


def test_console_get_roundtrip_in_a_program():
    out, cfg = run_with_script(ECHO_ONCE, ["knock knock"],
                               from_corpus=False)
    assert out.done
    assert cfg.outputs == ["knock knock"]


def test_script_exhaustion_fails_the_run():
    prog = parse_source(ECHO_ONCE)
    check_program(prog)
    m = boot(prepare(prog), services=ServiceConfig.from_script([]))
    with pytest.raises(ScriptExhausted):
        m.run_to_completion()


def test_listing9_console_lines():
    out, cfg = run_with_script("listing9.campl", [])
    assert out.done
    assert cfg.outputs == [
        "Server says: Running the stored process", "Hello World!"]


def test_untouched_console_produces_nothing():
    src = ("proc run =\n"
           "    | console => ->\n"
           "        on console do\n"
           "            hput ConsoleClose\n"
           "            halt\n")
    out, cfg = run_with_script(src, [], from_corpus=False)
    assert out.done
    assert cfg.outputs == []


def test_scripted_runs_are_bit_deterministic():
    results = set()
    for _ in range(3):
        out, cfg = run_with_script(ECHO_ONCE, ["same line"],
                                   from_corpus=False)
        trace = "\n".join(ev.render() for ev in out.trace)
        results.add((tuple(cfg.outputs), trace))
    assert len(results) == 1


def test_output_order_matches_console_put_trace_order():
    out, cfg = run_with_script("listing7.campl", [])
    hputs = [ev for ev in out.trace
             if ev.kind == "HPUT" and ev.payload == "ConsolePut"]
    assert len(hputs) == len(cfg.outputs) == 3
