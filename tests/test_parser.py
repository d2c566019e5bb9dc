import pytest

from campl.diagnostics import ParseFailure
from campl.model import (
    Call, Fork, OnDo, Plug, ProcDef, ProtocolDecl, PutVal, Race, Split,
)
from campl.parser import parse_source
from campl.printer import roundtrip_print
from conftest import corpus_text
from genprog import gen_program

CORPUS_FILES = [
    "listing1.campl", "listing2.campl", "listing3.campl", "listing5.campl",
    "listing6.campl", "listing7.campl", "listing8.campl", "listing9.campl",
    "appendix_b.campl", "appendix_c.campl", "appendix_e.campl",
]


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_parses(name):
    prog = parse_source(corpus_text(name))
    assert any(d.name == "run" for d in prog.decls
               if isinstance(d, ProcDef))


def test_listing1_shape():
    prog = parse_source(corpus_text("listing1.campl"))
    hello = prog.procs["helloworld"]
    assert hello.signature is not None
    assert len(hello.signature.seq_params) == 0
    assert len(hello.signature.in_chans) == 1
    assert len(hello.signature.out_chans) == 0
    assert hello.in_params == ("console",)
    run = prog.procs["run"]
    assert isinstance(run.body[0], Call)
    assert run.body[0].callee == "helloworld"
    assert run.body[0].chan_args == ("console",)


def test_listing5_fork_shape():
    prog = parse_source(corpus_text("listing5.campl"))
    body = prog.procs["two_clients"].body
    assert len(body) == 1 and isinstance(body[0], Fork)
    fork = body[0]
    assert fork.chan == "two_ch"
    assert fork.arms[0].name == "ch1" and fork.arms[1].name == "ch2"
    for arm in fork.arms:
        assert isinstance(arm.body[0], Call)
        assert arm.body[0].callee == "client"
    server = prog.procs["server"].body
    assert isinstance(server[0], Split)
    assert (server[0].left, server[0].right) == ("ch1", "ch2")
    assert isinstance(server[1], OnDo) and isinstance(server[2], OnDo)


def test_listing2_plug_shape():
    prog = parse_source(corpus_text("listing2.campl"))
    body = prog.procs["run"].body
    assert len(body) == 1 and isinstance(body[0], Plug)
    assert len(body[0].branches) == 2


def test_appendix_b_parses_without_arrow():
    prog = parse_source(corpus_text("appendix_b.campl"))
    client = prog.procs["client"]
    assert client.in_params == ("ch",)
    assert client.out_params == ()
    call = prog.procs["run"].body[0].branches[0][0]
    assert call.in_chans == ("ch",) and call.out_chans == ()


def test_on_do_blocks_parse_as_sugar_nodes():
    prog = parse_source(corpus_text("listing2.campl"))
    body = prog.procs["client"].body
    assert len(body) == 1 and isinstance(body[0], OnDo)
    inner = body[0].body
    assert isinstance(inner[0], PutVal) and inner[0].chan is None


def test_protocol_declaration_shape():
    prog = parse_source(corpus_text("listing7.campl"))
    decl = next(d for d in prog.decls if d.name == "PassMessages")
    assert isinstance(decl, ProtocolDecl)
    assert decl.seq_params == ("A",)
    assert decl.state_var == "S"
    assert [h.name for h in decl.handles] == ["SendMsg", "CloseCh"]


def test_race_arm_shape():
    prog = parse_source(corpus_text("listing8.campl"))
    server = prog.procs["server"].body
    race = server[1]
    assert isinstance(race, Race)
    assert [a.chan for a in race.arms] == ["ch1", "ch2"]


def test_truncated_put_is_an_error():
    with pytest.raises(ParseFailure) as e:
        parse_source("proc p =\n    | ch => -> put\n")
    assert any(d.kind == "ParseError" for d in e.value.errors)


def test_error_recovery_reports_multiple_declarations():
    src = ("proc a =\n    | ch => -> put on ch\n"
           "\nproc b =\n    | ch => -> get\n"
           "\nproc c =\n    | ch => -> close ch\n")
    with pytest.raises(ParseFailure) as e:
        parse_source(src)
    lines = {d.pos.line for d in e.value.errors}
    assert len(e.value.errors) >= 2
    assert any(l == 2 for l in lines) and any(l >= 5 for l in lines)


def test_duplicate_run_rejected():
    src = ("proc run =\n    | ch => -> close ch\n"
           "\nproc run =\n    | ch => -> close ch\n")
    with pytest.raises(ParseFailure) as e:
        parse_source(src)
    assert any("duplicate" in d.message for d in e.value.errors)


def test_channel_type_parameters_rejected():
    src = ("protocol P(A| TopBot) => S =\n"
           "    H :: TopBot => S\n")
    with pytest.raises(ParseFailure) as e:
        parse_source(src)
    assert any("channel-type parameters" in d.message
               for d in e.value.errors)


def test_unknown_channel_type_name():
    src = "proc p :: | Mystery => =\n    | ch => -> close ch\n"
    with pytest.raises(ParseFailure) as e:
        parse_source(src)
    assert any("unknown channel type" in d.message for d in e.value.errors)


def test_bare_command_outside_on_block_rejected():
    src = "proc p =\n    | ch => -> do\n        put 1\n        halt ch\n"
    with pytest.raises(ParseFailure) as e:
        parse_source(src)
    assert any("on" in d.message for d in e.value.errors)


def test_empty_program_roundtrip():
    prog = parse_source("")
    assert prog.decls == ()
    assert roundtrip_print(prog) == ""
    assert parse_source(roundtrip_print(prog)) == prog


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_roundtrip_print_corpus(name):
    p1 = parse_source(corpus_text(name))
    p2 = parse_source(roundtrip_print(p1))
    assert p1 == p2


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_print_generated(seed):
    ast = gen_program(seed)
    text = roundtrip_print(ast)
    assert parse_source(text) == ast


def test_anonymous_store_roundtrip():
    src = (
        "proc sender :: | => Put( Store(|Console=>) | TopBot) =\n"
        "    | => ch ->\n"
        "        on ch do\n"
        "            put store(proc anon :: | Console => =\n"
        "                | c => -> do\n"
        "                    hput ConsoleClose on c\n"
        "                    halt c\n"
        "                )\n"
        "            halt\n")
    prog = parse_source(src)
    assert parse_source(roundtrip_print(prog)) == prog


def test_inline_store_requires_signature():
    src = ("proc sender =\n"
           "    | => ch ->\n"
           "        on ch do\n"
           "            put store(proc anon =\n"
           "                | c => -> halt c\n"
           "                )\n"
           "            halt\n")
    with pytest.raises(ParseFailure) as e:
        parse_source(src)
    assert any("signature" in d.message for d in e.value.errors)
