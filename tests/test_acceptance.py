"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import time

import pytest

from campl import diagnostics as dk
from campl.checker import check_program
from campl.cli import main
from campl.diagnostics import CheckFailure
from campl.elaborate import prepare
from campl.model import (
    INPUT, INT, OUTPUT, STRING, TOPBOT, CoprotoApp, Get, Par, ProtoApp,
    Put, Tensor, allowed_commands,
)
from campl.parser import parse_source
from campl.runtime import OutcomeKind, boot
from campl.services import ServiceConfig
from conftest import CORPUS, Runner, corpus_text
from genprog import gen_program

RUNNABLE = [
    "listing1.campl", "listing2.campl", "listing3.campl", "listing5.campl",
    "listing7.campl", "listing8.campl", "listing9.campl",
    "appendix_c.campl", "appendix_e.campl",
]


def _run(name_or_prog, seed=0, script=(), checked=True):
    prog = (parse_source(corpus_text(name_or_prog))
            if isinstance(name_or_prog, str) else name_or_prog)
    cfg = ServiceConfig.from_script(list(script))
    machine = boot(prepare(prog), seed=seed, services=cfg, checked=checked)
    outcome = machine.run_to_completion()
    return outcome, cfg


def _passed(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_01_corpus_positivity():
    runner = Runner()
    for name in RUNNABLE:
        path = str(CORPUS / name)
        r = runner.invoke(main, ["check", path])
        assert r.exit_code == 0, f"{name}: check exit {r.exit_code}"
        started = time.monotonic()
        outcome, _ = _run(name)
        elapsed = time.monotonic() - started
        assert outcome.kind is OutcomeKind.DONE, f"{name}: {outcome.kind}"
        assert outcome.steps <= 100_000, f"{name}: {outcome.steps} steps"
        assert elapsed < 1.0, f"{name}: took {elapsed:.2f}s"
    _passed(1, "corpus checks and runs to completion")


def test_criterion_02_hello_world():
    r = Runner().invoke(main, ["run", str(CORPUS / "listing1.campl")])
    assert r.exit_code == 0
    assert r.stdout == "Hello World!\n"
    _passed(2, "hello world prints exactly one line")


def test_criterion_03_polarity_free_program_rejected_then_deadlocks():
    with pytest.raises(CheckFailure) as e:
        check_program(parse_source(corpus_text("appendix_b.campl")))
    assert any(d.channel == "ch" for d in e.value.errors)

    outcome, _ = _run(parse_source(corpus_text("appendix_b.campl")),
                      checked=False)
    assert outcome.kind is OutcomeKind.STUCK
    assert len(outcome.stuck) == 2
    assert len({tuple(v) for v in outcome.stuck.values()}) == 1

    r = Runner().invoke(
        main, ["run", str(CORPUS / "appendix_b.campl"), "--unchecked"])
    assert r.exit_code == 3
    _passed(3, "unpolarized program rejected; unchecked run deadlocks")


def test_criterion_04_explicit_typing_and_delivery_of_five():
    typed = check_program(parse_source(corpus_text("appendix_c.campl")))
    want = Put(STRING, Get(INT, TOPBOT))
    assert typed.plug_sites[0].chan_types["ch"] == want
    assert str(want) == "Put([Char]|Get(Int|TopBot))"

    outcome, _ = _run("appendix_c.campl")
    assert outcome.kind is OutcomeKind.DONE
    put5 = [ev for ev in outcome.trace
            if ev.kind == "PUT" and ev.payload == "5"]
    get5 = [ev for ev in outcome.trace
            if ev.kind == "GET" and ev.payload == "5"]
    assert put5 and get5 and put5[0].step < get5[0].step
    # direction: the client is whichever pid sent the greeting; it must
    # be the one that receives the 5, and the server the one sending it
    client_pid = next(ev.pid for ev in outcome.trace
                      if ev.kind == "PUT" and "Hello Server!" in ev.payload)
    assert get5[0].pid == client_pid
    assert put5[0].pid != client_pid
    _passed(4, "explicit signatures accepted; 5 travels server to client")


def _naive_unify(constraints):
    subst = {}

    def walk(t):
        while isinstance(t, str) and t in subst:
            t = subst[t]
        return t

    def apply(t):
        t = walk(t)
        return tuple(apply(x) for x in t) if isinstance(t, tuple) else t

    def unify(a, b):
        a, b = walk(a), walk(b)
        if a == b:
            return
        if isinstance(a, str):
            subst[a] = b
        elif isinstance(b, str):
            subst[b] = a
        else:
            assert a[0] == b[0] and len(a) == len(b), (a, b)
            for x, y in zip(a[1:], b[1:]):
                unify(x, y)

    for a, b in constraints:
        unify(a, b)
    return apply


def test_criterion_05_inference_matches_hand_unification():
    # Listing 2 carries no signatures.  Hand-derived constraints for the
    # shared channel T, from each end's command sequence:
    constraints = [
        ("T", ("Put", ("[Char]",), "R1")),   # client: put "Hello Server!"
        ("R1", ("Get", "E", "R2")),          # client: get echo
        ("R2", ("TopBot",)),                 # client: halt
        ("T", ("Put", "M", "Q1")),           # server: get msg
        ("Q1", ("Get", "M", "Q2")),          # server: put msg (same M)
        ("Q2", ("TopBot",)),                 # server: halt
    ]
    apply = _naive_unify(constraints)
    assert apply("T") == \
        ("Put", ("[Char]",), ("Get", ("[Char]",), ("TopBot",)))

    typed = check_program(parse_source(corpus_text("listing2.campl")))
    got = typed.plug_sites[0].chan_types["ch"]
    assert got == Put(STRING, Get(STRING, TOPBOT))
    # structurally consistent with the explicitly-typed analogue
    explicit = check_program(parse_source(corpus_text("appendix_c.campl")))
    analogue = explicit.plug_sites[0].chan_types["ch"]
    assert isinstance(analogue, Put) and isinstance(analogue.rest, Get)
    assert isinstance(got, Put) and isinstance(got.rest, Get)
    assert got.rest.rest == analogue.rest.rest == TOPBOT
    _passed(5, "inference on the signature-free echo program")


@pytest.mark.parametrize("name", ["listing7.campl", "appendix_e.campl"])
def test_criterion_06_protocol_recursion_is_identity(name):
    sent = ["one", "two", "three"]           # oracle: direct list copy
    outcome, cfg = _run(name)
    assert outcome.kind is OutcomeKind.DONE
    assert cfg.outputs == sent
    # Each sending stage (the producer and the forwarder) activates the
    # message handle once per payload and the closing handle exactly once.
    send_handle = "SendMsg" if name == "listing7.campl" else "CoSendMsg"
    close_handle = "CloseCh" if name == "listing7.campl" else "CoCloseCh"
    message_handles = {send_handle, "SendMsg"}
    closing_handles = {close_handle, "CloseCh"}
    by_pid: dict[int, list[str]] = {}
    for ev in outcome.trace:
        if ev.kind == "HPUT":
            by_pid.setdefault(ev.pid, []).append(ev.payload)
    senders = [h for h in by_pid.values()
               if set(h) & (message_handles | closing_handles)]
    assert len(senders) == 2
    for handles in senders:
        assert len([h for h in handles if h in message_handles]) >= 2
        assert len([h for h in handles if h in closing_handles]) == 1
    if name == "appendix_e.campl":
        _passed(6, "recursive forwarders are the identity on messages")


def test_criterion_07_race_coverage_and_determinism():
    prog = parse_source(corpus_text("listing8.campl"))
    check_program(prog)
    winners = set()
    for seed in range(32):
        outcome, _ = _run(prog, seed=seed)
        assert outcome.kind is OutcomeKind.DONE
        races = [ev for ev in outcome.trace if ev.kind == "RACE"]
        assert len(races) == 1
        winners.add(races[0].chan)
    assert winners == {"ch1", "ch2"}

    def full_trace(seed):
        outcome, _ = _run(prog, seed=seed)
        return "\n".join(ev.render() for ev in outcome.trace)

    for seed in (0, 13, 31):
        t1, t2, t3 = full_trace(seed), full_trace(seed), full_trace(seed)
        assert t1 == t2 == t3
    _passed(7, "both race winners across seeds 0-31; traces reproducible")


def test_criterion_08_higher_order_messages():
    outcome, cfg = _run("listing9.campl")
    assert outcome.kind is OutcomeKind.DONE
    assert cfg.outputs == [
        "Server says: Running the stored process",
        "Hello World!",
    ]
    _passed(8, "a stored process rides a channel and runs on arrival")


def test_criterion_09_topology_stays_acyclic():
    # Every corpus run, stepped manually with the monitor consulted after
    # every single step.
    for name in RUNNABLE:
        prog = parse_source(corpus_text(name))
        check_program(prog)
        m = boot(prepare(prog), services=ServiceConfig.from_script([]))
        assert m.check_topology() == []
        while True:
            p = m.pick()
            if p is None:
                break
            m.step(p)
            assert m.check_topology() == [], f"{name}: cycle"
        assert not m.processes, name

    # 500 generated well-typed programs (<=6 processes, <=8 channels,
    # <=3 multiplicative depth); the machine asserts acyclicity and end
    # conservation after every step and must reach completion.
    for seed in range(500):
        prog = gen_program(seed)
        check_program(prog)
        m = boot(prepare(prog), seed=seed,
                 services=ServiceConfig.from_script([]))
        outcome = m.run_to_completion()
        assert outcome.kind is OutcomeKind.DONE, f"seed {seed}"
    _passed(9, "zero topology cycles over corpus and 500 random programs")


NEGATIVES = [
    ("dropped channel",
     "proc p :: | TopBot, TopBot => =\n"
     "    | a, b => -> close a\n",
     dk.LINEARITY_DROP),
    ("double close",
     "proc p :: | TopBot => =\n"
     "    | a => -> do\n"
     "        close a\n"
     "        close a\n",
     dk.LINEARITY_REUSE),
    ("put after close",
     "proc p :: | TopBot => =\n"
     "    | a => -> do\n"
     "        close a\n"
     '        put "x" on a\n',
     dk.LINEARITY_REUSE),
    ("fork with overlapping partitions",
     "proc p :: | TopBot => TopBot (*) TopBot =\n"
     "    | d => t ->\n"
     "        fork t as\n"
     "            a -> do\n"
     "                close d\n"
     "                halt a\n"
     "            b -> do\n"
     "                close d\n"
     "                halt b\n",
     dk.LINEARITY_REUSE),
    ("plug triangle",
     "proc node :: | TopBot => TopBot =\n"
     "    | i => o -> do\n"
     "        close i\n"
     "        halt o\n"
     "\nproc run =\n"
     "    | => -> plug\n"
     "        node( | a => b )\n"
     "        node( | b => c )\n"
     "        node( | c => a )\n",
     dk.PLUG_CYCLE),
    ("duplicate protocol handle names",
     "protocol P(A| ) => S =\n"
     "    H :: Put(A|S) => S\n"
     "    DoneP :: TopBot => S\n"
     "\nprotocol Q(B| ) => T =\n"
     "    H :: Get(B|T) => T\n"
     "    DoneQ :: TopBot => T\n",
     dk.HANDLE_DUPLICATE),
]


def test_criterion_10_linearity_negative_suite():
    for label, src, expected_kind in NEGATIVES:
        with pytest.raises(CheckFailure) as e:
            check_program(parse_source(src))
        kinds = {d.kind for d in e.value.errors}
        assert expected_kind in kinds, f"{label}: got {kinds}"
    _passed(10, "all six negative programs fail with the expected kind")


def test_criterion_11_command_matrix():
    proto = ProtoApp("PassMessages", (STRING,))
    coproto = CoprotoApp("CoPassMessages", (INT,))
    cells = [
        (TOPBOT, OUTPUT, {"close", "halt"}),
        (TOPBOT, INPUT, {"close", "halt"}),
        (Put(STRING, TOPBOT), OUTPUT, {"put"}),
        (Put(STRING, TOPBOT), INPUT, {"get"}),
        (Get(INT, TOPBOT), OUTPUT, {"get"}),
        (Get(INT, TOPBOT), INPUT, {"put"}),
        (Tensor(TOPBOT, TOPBOT), OUTPUT, {"fork"}),
        (Tensor(TOPBOT, TOPBOT), INPUT, {"split"}),
        (Par(TOPBOT, TOPBOT), OUTPUT, {"split"}),
        (Par(TOPBOT, TOPBOT), INPUT, {"fork"}),
        (proto, OUTPUT, {"hput"}),
        (proto, INPUT, {"hcase"}),
        (coproto, OUTPUT, {"hcase"}),
        (coproto, INPUT, {"hput"}),
    ]
    assert len(cells) >= 12
    for t, pol, want in cells:
        assert allowed_commands(t, pol) == frozenset(want), (t, pol)
    _passed(11, "command matrix reproduced for every type/polarity cell")
