"""The checker's audit after inference against its references.

Once inference ends the substitution no longer changes, and the checker
zonks signatures and plug and fork site types through one memo per node
(`checker.Solved`).  These tests compare every type it returns with plain
`Unifier.zonk` of what inference left, and every `mentions_service`
answer with the unmemoised one, and check that the audit's work grows
with the size of the solved types, not with the sum of each site's tree.
"""

import random

from campl import checker
from campl.checker import Checker, mentions_service
from campl.diagnostics import CheckFailure, ParseFailure
from campl.model import map_signature
from campl.parser import parse_source
from conftest import CORPUS, load_perfbench
from genprog import gen_program
from test_checker import CONSOLE_FORK, CONSOLE_PLUG
from test_goldens import FAULTS, LINKS, MESSAGES, PERFBENCH
from test_traversal import _fork_tower


def _assert_audit_agrees(src) -> bool:
    """Check `src` and compare the audit with the references; whether the
    program was accepted."""
    c = Checker(src)
    raw = {}
    audit = c._audit_created_types

    def spy(solved):
        raw["plugs"] = [dict(site.chan_types) for site in c.plug_sites]
        raw["forks"] = [site.components for site in c.fork_sites]
        raw["solved"] = solved
        audit(solved)
    c._audit_created_types = spy
    try:
        typed = c.run()
    except CheckFailure:
        typed = None
    zonk, solved = c.uni.zonk, raw["solved"]
    for site, before in zip(c.plug_sites, raw["plugs"], strict=True):
        assert site.chan_types == {n: zonk(t) for n, t in before.items()}
    for site, before in zip(c.fork_sites, raw["forks"], strict=True):
        assert site.components == tuple(map(zonk, before))
    created = [t for site in c.plug_sites for t in site.chan_types.values()]
    created += [t for site in c.fork_sites for t in site.components]
    for t in created:
        assert solved.mentions_service(t) == mentions_service(t)
    if typed is not None:
        assert typed.signatures == {
            n: map_signature(sig, zonk) for n, sig in c.sigs.items()
            if n in typed.signatures}
    return typed is not None


def _texts():
    yield from ((p.name, p.read_text(encoding="utf-8"))
                for p in sorted(CORPUS.glob("*.campl")))
    yield from {**FAULTS, **LINKS, **MESSAGES, **PERFBENCH}.items()
    yield "console_plug", CONSOLE_PLUG
    yield "console_fork", CONSOLE_FORK
    for depth in (1, 2, 30, 120):
        yield f"tower{depth}", _fork_tower(depth)
    programs = load_perfbench("programs")
    yield "frontend", programs.frontend_source(random.Random(3), 12, 25)


def test_audit_agrees_on_corpus_goldens_and_towers():
    accepted = rejected = 0
    for name, text in _texts():
        try:
            src = parse_source(text)
        except ParseFailure:
            continue
        if _assert_audit_agrees(src):
            accepted += 1
        else:
            rejected += 1
    assert accepted >= 20 and rejected >= 5, (accepted, rejected)


def test_audit_agrees_on_generated_programs():
    for seed in range(60):
        assert _assert_audit_agrees(gen_program(seed)), seed


def _map_type_calls(depth: int, monkeypatch) -> int:
    src = parse_source(_fork_tower(depth))
    calls = [0]
    real = checker.map_type

    def counting(t, f):
        calls[0] += 1
        return real(t, f)
    with monkeypatch.context() as m:
        m.setattr(checker, "map_type", counting)
        checker.check_program(src)
    return calls[0]


def test_audit_work_is_linear_in_tower_depth(monkeypatch):
    # The checker's map_type calls on a tower are all zonking after
    # inference.  Re-zonking each fork site's remaining tower made them
    # quadratic: 21,403 at D=100 and 82,803 at D=200.
    small = _map_type_calls(100, monkeypatch)
    large = _map_type_calls(200, monkeypatch)
    assert large <= 2.5 * small, (small, large)
