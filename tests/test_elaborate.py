import random
from collections import deque

import pytest

from campl.cli import main
from campl.elaborate import ExecProgram, cycle_edges, prepare
from campl.model import (
    WITH_CHAN, Arm, Call, Close, Fork, GetVal, Halt, HCase, HPut, IntLit,
    Link, NegIntro, OnDo, Plug, ProcDef, PutVal, Race, Split, SourceProgram,
    StoreOf, StringLit,
)
from campl.parser import parse_source
from conftest import (
    CORPUS, Runner, corpus_text, free_chans, replace, sub_bodies,
)
from genprog import gen_program
from test_goldens import FAULTS, LINKS, MESSAGES


def desugar_body(body):
    """`body` desugared by `prepare`, as a process's body."""
    proc = ProcDef("p", None, (), (), (), body)
    return prepare(SourceProgram((proc,))).procs["p"].body


# One command of each class an `on` block may supply a channel to.
WITHOUT_CHAN = {
    PutVal: PutVal(IntLit(1), None),
    GetVal: GetVal("v", None),
    HPut: HPut("H", None),
    HCase: HCase(None, (Arm("H", (Halt("d"),)),)),
    Close: Close(None),
    Halt: Halt(None),
    Fork: Fork(None, (Arm("l", (Halt("l"),)),
                      Arm("r", (Halt("r"),)))),
    Split: Split(None, "l", "r"),
}


@pytest.mark.parametrize("kind", WITH_CHAN, ids=lambda k: k.__name__)
def test_on_do_fills_channel_arguments(kind):
    cmd = WITHOUT_CHAN[kind]
    assert desugar_body((OnDo("c", (cmd,)),)) == (replace(cmd, chan="c"),)
    named = replace(cmd, chan="b")
    assert desugar_body((OnDo("c", (named,)),)) == (named,)


# listing5 with its fork and split inside `on two_ch do` blocks.
LISTING5_ON_BLOCKS = """\
proc client :: | => Put([Char]|TopBot) =
    | => ch ->
        on ch do
            put "Hello Server!"
            halt

proc two_clients :: | => Put([Char]|TopBot) (*) Put([Char]|TopBot) =
    | => two_ch -> on two_ch do
        fork as
            ch1 -> client( | => ch1)
            ch2 -> client( | => ch2)

proc server :: | Put([Char]|TopBot) (*) Put([Char]|TopBot) => =
    | two_ch => -> do
        on two_ch do
            split into ch1, ch2
        on ch1 do
            get msg
            close
        on ch2 do
            get msg
            halt

proc run :: | => =
    | => -> plug
        two_clients( | => two_ch )
        server( | two_ch => )
"""


def test_fork_and_split_take_their_channel_from_an_on_block(tmp_path):
    src = tmp_path / "listing5_on.campl"
    src.write_text(LISTING5_ON_BLOCKS, encoding="utf-8")
    runner = Runner()
    r = runner.invoke(main, ["check", str(src)])
    assert (r.exit_code, r.stdout, r.stderr) == (0, "", "")
    want = runner.invoke(main, ["run", "--trace",
                                str(CORPUS / "listing5.campl")])
    got = runner.invoke(main, ["run", "--trace", str(src)])
    assert want.stderr.count("\n") == 15
    assert (got.exit_code, got.stdout, got.stderr) == (
        0, want.stdout, want.stderr)


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
        HCase(None, (Arm("H", (Halt(None),)),)),
    )),)
    got = desugar_body(body)
    assert got == (HCase("c", (Arm("H", (Halt("c"),)),)),)


def test_on_do_does_not_reach_into_an_inline_stored_process():
    # A stored process runs on its own channels, so its bare commands stay
    # bare for the checker to report.
    inner = ProcDef("p", None, (), (), ("d",), (Close(None),))
    body = (OnDo("c", (PutVal(StoreOf(inner), None),)),)
    got = desugar_body(body)
    assert got == (PutVal(StoreOf(inner), "c"),)
    assert got[0].expr.target is inner


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
        Arm("a", (Link("a", "b"),)),
        Arm("b", (Link("b", "a"),)),
    )),)
    assert free_chans(body) == {"a", "b"}


# Hand-written free sets for the rules the memo and the reference share.
FREE_SETS = {
    # Each arm's channels count, and the hcase's own; fork and split
    # binders inside an arm do not.
    "hcase": ((PutVal(IntLit(1), "d"),
               HCase("c", (
                   Arm("A", (Close("c"), Halt("d"))),
                   Arm("B", (Split("c", "x", "y"), Close("x"),
                                  Close("y"), Halt("e"))),
                   Arm("C", (Fork("c", (
                       Arm("l", (Halt("l"),)),
                       Arm("r", (Close("r"), Halt("f"))))),))))),
              {"c", "d", "e", "f"}),
    # The hcase's channel counts even where no arm names it.
    "hcase-channel": ((HCase("c", (Arm("A", (Halt("d"),)),)),),
                      {"c", "d"}),
    # A plug binds each name free in exactly two of its branches: the
    # inner plug joins `q`, so its set is {p}, and the outer plug joins
    # `p`.  Only `h`, which one branch uses, stays free.
    "nested-plug": ((PutVal(IntLit(1), "h"),
                     Plug((
                         (Plug(((Call("a", (), (), ("q",)),),
                                (Call("b", (), ("q",), ("p",)),))),),
                         (Call("c", (), ("p", "h"), ()),)))),
                    {"h"}),
    # A name in one branch or in three stays free: the plug joins neither.
    "plug-counts": ((Plug(((Halt("x"),), (Halt("y"), Close("z")),
                           (Close("y"),), (Close("y"),))),),
                    {"x", "y", "z"}),
}


@pytest.mark.parametrize("name", FREE_SETS)
def test_free_chans_of_hand_written_bodies(name):
    body, expected = FREE_SETS[name]
    assert free_chans(body) == expected
    assert ExecProgram({}).free_chans(body) == expected


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
def test_prepare_shares_what_it_does_not_change(group):
    # A process desugaring leaves equal (no `on` block anywhere in it) is
    # the source's own ProcDef, body and all.
    shared = changed = 0
    for src in _memo_sources(group):
        ex = prepare(src)
        for name, d in src.procs.items():
            if ex.procs[name].body == d.body:
                assert ex.procs[name] is d, name
                shared += 1
            else:
                changed += 1
    assert shared and (changed or group != "corpus"), (shared, changed)


@pytest.mark.parametrize("group", ["corpus", "goldens", "genprog"])
def test_free_chans_memo_agrees_with_the_reference(group):
    kinds = set()
    for src in _memo_sources(group):
        ex = prepare(src)
        for d in ex.procs.values():
            for kind, body in [(ProcDef, d.body), *_nested(d.body)]:
                got = ex.free_chans(body)
                assert got == free_chans(body), (d.name, kind.__name__)
                assert ex.free_chans(body) is got
                kinds.add(kind)
    assert kinds == ({ProcDef, Fork, Plug, HCase, Race} if group == "corpus"
                     else {ProcDef, Fork, Plug})


def _closing_edges(edges):
    """The reference for `cycle_edges`: the keys of the edges, in order,
    whose ends a breadth-first search over the edges before them finds
    already connected."""
    adjacent: dict = {}
    closing = []
    for key, a, b in edges:
        seen, queue = {a}, deque([a])
        while queue:
            for y in adjacent.get(queue.popleft(), ()):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if b in seen:
            closing.append(key)
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    return closing


def test_cycle_edges_agrees_with_a_search_per_edge():
    # Random multigraphs over pids and plain objects, as the monitor's
    # owners are pids and `ConsoleEndpoint`s: self-loops and parallel
    # edges arise, and both forests and graphs with cycles.
    loops = parallels = forests = 0
    for seed in range(300):
        rng = random.Random(seed)
        nodes = [*range(rng.randint(1, 6)),
                 *(object() for _ in range(rng.randint(0, 4)))]
        edges = [(i, rng.choice(nodes), rng.choice(nodes))
                 for i in range(rng.randint(0, 12))]
        closing = cycle_edges(edges)
        assert closing == _closing_edges(edges), seed
        loops += any(a == b for _, a, b in edges)
        pairs = [frozenset((a, b)) for _, a, b in edges]
        parallels += len(set(pairs)) < len(pairs)
        forests += not closing
    assert min(loops, parallels, forests, 300 - forests) > 20, (
        loops, parallels, forests)
