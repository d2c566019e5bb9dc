"""The front end's two shortcuts against the walks they replace.

`prepare` records each process's call graph edges as it desugars, so the
checker orders its work without a second walk; `_Refs`, the walk that used
to find those edges, is kept here as the reference.  The checker memoises
each handle's unfolding per application node; `unfold_handle` builds a
fresh one and is the reference for every unfolding the memo returns.
Both run over the corpus, the golden sources, `genprog` seeds 0-299 and
the three benchmark workloads at seed 7."""

import sys

import pytest

from campl.checker import Checker, _scc_order, check_program
from campl.diagnostics import CheckFailure
from campl.elaborate import prepare
from campl.model import (
    STRING, Body, Call, Expr, ProtoApp, StoreOf, map_command, unfold_handle,
)
from campl.parser import parse_source
from conftest import CORPUS, corpus_text, load_perfbench
from genprog import gen_program
from test_goldens import FAULTS, LINKS, MESSAGES


class _Refs(list):
    """Names of the processes the bodies walked call or store, in order of
    mention: the checker's own walk before `prepare` recorded them."""

    def body(self, b: Body) -> Body:
        for cmd in b:
            if type(cmd) is Call:
                self.append(cmd.callee)
            map_command(cmd, self.body, self.expr)
        return b

    def expr(self, e: Expr) -> Expr:
        if type(e) is StoreOf:
            if isinstance(e.target, str):
                self.append(e.target)
            else:
                self.body(e.target.body)
        return e


def _texts(group: str) -> dict[str, str]:
    if group == "corpus":
        return {p.name: p.read_text(encoding="utf-8")
                for p in sorted(CORPUS.glob("*.campl"))}
    if group == "goldens":
        return {**FAULTS, **LINKS, **MESSAGES}
    programs = load_perfbench("programs")
    texts = {}
    for workload in (programs.pipeline(7), programs.churn(7),
                     programs.frontend(7)):
        texts.update(workload.sources)
    # The one program the parser cannot read: a documented defect.
    del texts["frontend-n20-d300"]
    return texts


def _sources(group: str):
    """(name, parsed program) for every source of `group`."""
    if group == "genprog":
        return [(f"seed {seed}", gen_program(seed)) for seed in range(300)]
    return [(name, parse_source(text))
            for name, text in _texts(group).items()]


GROUPS = ["corpus", "goldens", "genprog", "perfbench"]


@pytest.mark.parametrize("group", GROUPS)
def test_prepare_records_the_reference_call_graph(group):
    edges = 0
    for name, src in _sources(group):
        ex = prepare(src)
        expected = {}
        for proc, d in ex.procs.items():
            refs = _Refs()
            refs.body(d.body)
            expected[proc] = list(refs)
            edges += len(refs)
        assert ex.refs == expected, name
        # The chain of the (1000, 20) program needs one frame per process.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 2 * len(ex.procs) + 200))
        try:
            assert _scc_order(ex.procs, ex.refs) == \
                _scc_order(ex.procs, expected), name
        finally:
            sys.setrecursionlimit(limit)
    assert edges, group


def test_prepare_records_references_in_order_of_mention():
    # Calls and stores, inline stored processes and `on` blocks, in the
    # order the source mentions them; repeats are kept.
    text = """
proc a = | => c ->
    on c do
        put store(proc inner :: | => TopBot = | => d -> do
                b( | => d)
                c( | => d)
            )
        put store(b)
        close
proc b = | => d -> halt d
proc c = | => d -> halt d
"""
    ex = prepare(parse_source(text))
    assert ex.refs == {"a": ["b", "c", "b"], "b": [], "c": []}
    refs = _Refs()
    refs.body(ex.procs["a"].body)
    assert refs == ex.refs["a"]


def _checkable(group: str):
    programs = load_perfbench("programs")
    crashes = {"frontend-n%d-d%d" % shape
               for shape, (check, _) in programs.FRONTEND_DEFECTS.items()
               if check is not None}
    return [(name, src) for name, src in _sources(group)
            if name not in crashes]


@pytest.mark.parametrize("group", GROUPS)
def test_every_memoised_unfolding_equals_a_fresh_one(group, monkeypatch):
    original = Checker.unfold
    calls = hits = 0

    def checked(self, decl, handle, app):
        nonlocal calls, hits
        calls += 1
        hits += (handle, id(app)) in self.unfoldings
        got = original(self, decl, handle, app)
        assert got == unfold_handle(decl, handle, app), (handle, app)
        return got

    monkeypatch.setattr(Checker, "unfold", checked)
    for name, src in _checkable(group):
        try:
            check_program(src)
        except CheckFailure:
            pass
    if group == "genprog":
        # The generator writes no protocols.
        assert calls == 0
    else:
        assert calls > hits, (calls, hits)
        # A recursive protocol's steps unfold the same node again.
        assert hits or group == "goldens", (calls, hits)


def test_the_unfolding_memo_is_keyed_by_node_identity():
    checker = Checker(parse_source(corpus_text("listing7.campl")))
    decl = checker.handles["SendMsg"]
    app = ProtoApp("PassMessages", (STRING,))
    first = checker.unfold(decl, "SendMsg", app)
    assert first == unfold_handle(decl, "SendMsg", app)
    assert checker.unfold(decl, "SendMsg", app) is first
    twin = ProtoApp("PassMessages", (STRING,))
    assert twin == app and twin is not app
    again = checker.unfold(decl, "SendMsg", twin)
    assert again == first and again is not first
    assert checker.unfold(decl, "CloseCh", app) != first
    assert len(checker.unfoldings) == 3
