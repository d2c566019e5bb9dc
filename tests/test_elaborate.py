import pytest

from campl.elaborate import desugar_body, free_chans, prepare
from campl.model import (
    Close, Fork, GetVal, Halt, HCase, HCaseArm, HPut, Link, NegIntro, OnDo,
    Plug, PutVal, Race, RaceArm, Split, StringLit, sub_bodies,
)
from campl.parser import parse_source
from conftest import CORPUS, corpus_text
from genprog import gen_program
from test_goldens import FAULTS, LINKS, MESSAGES


def test_on_do_fills_channel_arguments():
    body = (OnDo("ch", (
        PutVal(StringLit("x"), None),
        GetVal("v", None),
        Halt(None),
    )),)
    got = desugar_body(body)
    assert got == (
        PutVal(StringLit("x"), "ch"),
        GetVal("v", "ch"),
        Halt("ch"),
    )


def test_explicit_channel_wins_inside_on_do():
    body = (OnDo("a", (
        PutVal(StringLit("x"), "b"),
        Close(None),
    )),)
    got = desugar_body(body)
    assert got == (PutVal(StringLit("x"), "b"), Close("a"))


def test_nested_on_do_inner_wins():
    body = (OnDo("outer", (
        OnDo("inner", (HPut("H", None),)),
        Close(None),
    )),)
    got = desugar_body(body)
    assert got == (HPut("H", "inner"), Close("outer"))


def test_on_do_reaches_into_arms():
    body = (OnDo("c", (
        HCase(None, (HCaseArm("H", (Halt(None),)),)),
    )),)
    got = desugar_body(body)
    assert got == (HCase("c", (HCaseArm("H", (Halt("c"),)),)),)


def test_prepare_desugars_every_proc():
    prog = parse_source(corpus_text("listing2.campl"))
    ex = prepare(prog)
    for d in ex.procs.values():
        assert all(not isinstance(c, OnDo) for c in d.body)


def test_free_chans_binders():
    body = (
        Split("t", "l", "r"),
        Close("l"),
        Close("r"),
        Halt("z"),
    )
    assert free_chans(body) == {"t", "z"}


def test_free_chans_neg_rebinding():
    body = (NegIntro("x", "y"), Halt("y"))
    assert free_chans(body) == {"x"}


def test_free_chans_link_and_race():
    body = (Race((
        RaceArm("a", (Link("a", "b"),)),
        RaceArm("b", (Link("b", "a"),)),
    )),)
    assert free_chans(body) == {"a", "b"}


def _memo_sources(group: str):
    if group == "corpus":
        return [parse_source(p.read_text(encoding="utf-8"))
                for p in sorted(CORPUS.glob("*.campl"))]
    if group == "goldens":
        return [parse_source(text)
                for text in {**FAULTS, **LINKS, **MESSAGES}.values()]
    return [gen_program(seed) for seed in range(100)]


def _nested(body):
    """(command kind, body) for every fork-arm, plug-branch, hcase-arm
    and race-arm body inside `body`, outermost first."""
    for cmd in body:
        for sub in sub_bodies(cmd):
            yield type(cmd), sub
            yield from _nested(sub)


@pytest.mark.parametrize("group", ["corpus", "goldens", "genprog"])
def test_free_chans_memo_agrees_with_the_reference(group):
    kinds = set()
    for src in _memo_sources(group):
        ex = prepare(src)
        for d in ex.procs.values():
            for kind, body in _nested(d.body):
                got = ex.free_chans(body)
                assert got == free_chans(body), (d.name, kind.__name__)
                assert ex.free_chans(body) is got
                kinds.add(kind)
    assert kinds == ({Fork, Plug, HCase, Race} if group == "corpus"
                     else {Fork, Plug})
