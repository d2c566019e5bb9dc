import gc
import random
import typing

import pytest

import campl.model as model
from campl.checker import check_program
from campl.elaborate import ExecProgram, prepare
from campl.model import (
    Arm, Call, Close, Fork, GetVal, Halt, HCase, HPut, IntLit, Link,
    NegIntro, OnDo, Plug, PutVal, Race, Split, Use, VarRef,
)
from campl.parser import parse_source
from campl.printer import roundtrip_print
from campl.runtime import (
    _HANDLERS, _WAITING, EndState, Machine, MachineFault, BootError,
    OutcomeKind, ProcessInstance, RewireMsg, boot, resolve_race,
)
from campl.services import ServiceConfig
from conftest import corpus_text, load_perfbench, run_watched
from genprog import gen_program, with_forwarder
from test_checker import POSITIVE


def run_corpus(name, seed=0, script=(), max_steps=100_000):
    prog = parse_source(corpus_text(name))
    check_program(prog)
    cfg = ServiceConfig.from_script(list(script))
    m = boot(prepare(prog), seed=seed, services=cfg)
    out = m.run_to_completion(max_steps)
    return out, cfg


def run_text(src, seed=0, script=(), check=True):
    prog = parse_source(src)
    if check:
        check_program(prog)
    cfg = ServiceConfig.from_script(list(script))
    m = boot(prepare(prog), seed=seed, services=cfg, checked=check)
    return m.run_to_completion(), cfg


# ---------------------------------------------------------------------------
# boot

def test_boot_listing1_has_one_process_one_channel():
    prog = parse_source(corpus_text("listing1.campl"))
    check_program(prog)
    m = boot(prepare(prog), services=ServiceConfig.from_script([]))
    assert len(m.processes) == 1
    assert len(m.channels) == 1
    assert len(m.services) == 1


def test_boot_empty_run_signature():
    prog = parse_source("proc helper :: | TopBot => =\n"
                        "    | a => -> close a\n"
                        "\nproc run =\n"
                        "    | => -> plug\n"
                        "        helper( | a => )\n"
                        "        do\n"
                        "            halt a\n")
    check_program(prog)
    m = boot(prepare(prog), services=ServiceConfig.from_script([]))
    assert len(m.processes) == 1 and len(m.channels) == 0


def test_boot_without_run_is_an_error():
    prog = parse_source("proc p :: | TopBot => =\n    | a => -> close a\n")
    with pytest.raises(BootError):
        boot(prepare(prog))


# ---------------------------------------------------------------------------
# full-run behaviour

def test_listing2_runs_to_done_with_empty_tables():
    out, _ = run_corpus("listing2.campl")
    assert out.done
    kinds = [(ev.kind, ev.pid) for ev in out.trace]
    puts = [ev for ev in out.trace if ev.kind == "PUT"]
    gets = [ev for ev in out.trace if ev.kind == "GET"]
    assert len(puts) == 2 and len(gets) == 2
    # client sends first, server echoes, client receives
    assert puts[0].pid != puts[1].pid
    assert not out.machine.channels and not out.machine.processes


def test_listing1_done_under_twenty_steps():
    out, cfg = run_corpus("listing1.campl")
    assert out.done and out.steps < 20
    assert cfg.outputs == ["Hello World!"]


def test_appendix_c_delivers_the_integer_five():
    out, _ = run_corpus("appendix_c.campl")
    assert out.done
    five_puts = [ev for ev in out.trace
                 if ev.kind == "PUT" and ev.payload == "5"]
    five_gets = [ev for ev in out.trace
                 if ev.kind == "GET" and ev.payload == "5"]
    assert five_puts and five_gets
    # delivered from the server process to the client process
    assert five_puts[0].pid != five_gets[0].pid


def test_appendix_b_unchecked_sticks_both_processes_on_one_channel():
    prog = parse_source(corpus_text("appendix_b.campl"))
    m = boot(prepare(prog), services=ServiceConfig.from_script([]),
             checked=False)
    out = m.run_to_completion()
    assert out.kind is OutcomeKind.STUCK
    assert len(out.stuck) == 2
    waited = {tuple(v) for v in out.stuck.values()}
    assert len(waited) == 1


def test_listing5_network_after_fork_and_split():
    prog = parse_source(corpus_text("listing5.campl"))
    check_program(prog)
    m = boot(prepare(prog), services=ServiceConfig.from_script([]))
    seen = set()
    while True:
        p = m.pick()
        assert p is not None
        ev = m.step(p)
        seen.add(ev.kind)
        if "SPLIT" in seen and "FORK" in seen:
            break
    assert len(m.processes) == 3
    live = [e for e in m.channels.values()
            if not (e.closed or e.peer.closed)]
    assert len(live) == 2
    assert m.check_topology() == []


def test_step_limit_outcome():
    src = ("protocol Tick(A| ) => S =\n"
           "    Go :: Put(A|S) => S\n"
           "    End :: TopBot => S\n"
           "\nproc pump :: | => Tick(Int| ) =\n"
           "    | => ch -> do\n"
           "        hput Go on ch\n"
           "        put 1 on ch\n"
           "        pump( | => ch )\n"
           "\nproc sink :: | Tick(Int| ) => =\n"
           "    | ch => ->\n"
           "        hcase ch of\n"
           "            Go -> do\n"
           "                get x on ch\n"
           "                sink( | ch => )\n"
           "            End -> close ch\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        pump( | => ch )\n"
           "        sink( | ch => )\n")
    prog = parse_source(src)
    check_program(prog)
    m = boot(prepare(prog), services=ServiceConfig.from_script([]))
    out = m.run_to_completion(max_steps=500)
    assert out.kind is OutcomeKind.STEP_LIMIT
    assert out.steps == 500


# ---------------------------------------------------------------------------
# topology monitor

def _wire(machine, cid, a, b):
    x, y = EndState(cid, f"c{cid}", a), EndState(cid, f"c{cid}", b)
    x.peer, y.peer = y, x
    machine.channels[cid] = x


def test_resolve_owner_gives_up_on_a_cycle_of_ends():
    # Two pending ends that each wait to be claimed through the other
    # (faulty unchecked programs only) resolve to no one; a chain that
    # ends resolves to its last owner.
    m = Machine(prepare(parse_source("")), 0)
    a, b = m._new_channel("a")[0], m._new_channel("b")[0]
    a.owner, b.owner = b, a
    assert m.resolve_owner(a) is None and m.resolve_owner(b) is None
    b.owner = 7
    assert m.resolve_owner(a) == 7


def test_topology_two_nodes_one_edge():
    m = Machine(prepare(parse_source("")), 0)
    _wire(m, 0, 1, 2)
    assert m.check_topology() == []


def test_topology_path_is_fine():
    m = Machine(prepare(parse_source("")), 0)
    _wire(m, 0, 1, 2)
    _wire(m, 1, 2, 3)
    assert m.check_topology() == []


def test_topology_triangle_detected():
    m = Machine(prepare(parse_source("")), 0)
    _wire(m, 0, 1, 2)
    _wire(m, 1, 2, 3)
    _wire(m, 2, 3, 1)
    bad = m.check_topology()
    assert bad == [2]
    with pytest.raises(MachineFault):
        m.assert_invariants()


def test_corpus_topology_clean_at_every_step():
    for name in ["listing2.campl", "listing5.campl", "listing7.campl",
                 "listing8.campl", "appendix_e.campl"]:
        prog = parse_source(corpus_text(name))
        check_program(prog)
        m = boot(prepare(prog), services=ServiceConfig.from_script([]))
        run_watched(m)
        assert not m.processes


def churn_text(messages: int) -> str:
    """The benchmark's `churn` program, sending `messages` messages: each
    re-plugs a relay, an opener and a racer, and the worker prints two
    lines per message on the Console."""
    return load_perfbench("programs").churn_source(
        random.Random(messages), [f"m{i}" for i in range(messages)], "~tag")


@pytest.mark.parametrize("seed", range(4))
def test_churn_is_watched_at_every_step(seed):
    # Fork, split, plug, race, close and Console traffic: the monitor,
    # ownership and the scheduler agree with their references throughout.
    program = check_program(parse_source(churn_text(12))).exec_program
    m = boot(program, seed=seed, services=ServiceConfig.from_script([]))
    run_watched(m)
    assert not m.processes and not m.channels
    assert [ev.kind for ev in m.trace].count("RACE") == 12
    assert len(m.config.outputs) == 24


def test_checked_runs_leave_no_cyclic_garbage():
    # A channel's ends name each other until it is reaped, and then no
    # longer, so a finished run is freed by reference counting alone: with
    # the collector paused, a collection finds nothing once the machine
    # and its outcome are dropped.  A reaped channel whose ends still
    # named each other would leave both ends and their inboxes behind.
    # Half the generated programs route a channel through a |=|.
    programs = load_perfbench("programs")
    texts = [corpus_text(name) for name in POSITIVE]
    for s in range(10):
        texts += [roundtrip_print(gen_program(s)), roundtrip_print(
            with_forwarder(gen_program(s), s % 2 == 0, s))]
    texts += [churn_text(100), programs.pipeline_source(
        random.Random(0), 20, ["alpha", "beta"])]
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            out, _ = run_text(text, script=["first line", "second line"])
            assert out.done
            del out
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


# ---------------------------------------------------------------------------
# races

def test_resolve_race_singleton_still_draws():
    r1 = random.Random(1)
    r2 = random.Random(1)
    chosen = resolve_race(["only"], r1)
    assert chosen == "only"
    # one draw was consumed: the streams now differ by exactly that draw
    r2.randrange(1)
    assert r1.random() == r2.random()


def test_resolve_race_empty_is_an_error():
    with pytest.raises(ValueError):
        resolve_race([], random.Random(0))


def test_listing8_winners_cover_both_arms_across_seeds():
    prog = parse_source(corpus_text("listing8.campl"))
    check_program(prog)
    ex = prepare(prog)
    winners = set()
    for seed in range(32):
        m = boot(ex, seed=seed, services=ServiceConfig.from_script([]))
        out = m.run_to_completion()
        assert out.done
        race = [ev for ev in out.trace if ev.kind == "RACE"]
        assert len(race) == 1
        winners.add(race[0].chan)
    assert winners == {"ch1", "ch2"}


def test_same_seed_same_trace():
    prog = parse_source(corpus_text("listing8.campl"))
    check_program(prog)
    ex = prepare(prog)

    def trace_text(seed):
        m = boot(ex, seed=seed, services=ServiceConfig.from_script([]))
        out = m.run_to_completion()
        return "\n".join(ev.render() for ev in out.trace)

    assert trace_text(7) == trace_text(7) == trace_text(7)
    assert trace_text(3) != "" and isinstance(trace_text(3), str)


def test_race_winner_had_a_deliverable_message():
    prog = parse_source(corpus_text("listing8.campl"))
    check_program(prog)
    ex = prepare(prog)
    for seed in (0, 1, 2, 3):
        m = boot(ex, seed=seed, services=ServiceConfig.from_script([]))
        while True:
            p = m.pick()
            if p is None:
                break
            cmd = p.body[p.at]
            from campl.model import Race
            if isinstance(cmd, Race):
                ready = m._race_ready(p, cmd)
                assert ready, "race scheduled with nothing deliverable"
            m.step(p)


# ---------------------------------------------------------------------------
# forwarding is the identity on message sequences

def test_forwarder_preserves_message_order():
    out, cfg = run_corpus("listing7.campl")
    assert out.done
    sent = ["one", "two", "three"]      # what the driver puts in
    assert cfg.outputs == sent


def test_coprotocol_forwarder_preserves_message_order():
    out, cfg = run_corpus("appendix_e.campl")
    assert out.done
    assert cfg.outputs == ["one", "two", "three"]


def test_fifo_per_direction():
    src = ("proc talker :: | => Put(Int|Put(Int|Put(Int|TopBot))) =\n"
           "    | => ch ->\n"
           "        on ch do\n"
           "            put 1\n"
           "            put 2\n"
           "            put 3\n"
           "            halt\n"
           "\nproc hearer :: | Put(Int|Put(Int|Put(Int|TopBot))) => =\n"
           "    | ch => ->\n"
           "        on ch do\n"
           "            get a\n"
           "            get b\n"
           "            get c\n"
           "            close\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        talker( | => ch )\n"
           "        hearer( | ch => )\n")
    out, _ = run_text(src)
    assert out.done
    gets = [ev.payload for ev in out.trace if ev.kind == "GET"]
    assert gets == ["1", "2", "3"]


# ---------------------------------------------------------------------------
# link and neg

def test_link_fuses_and_forwards():
    src = ("proc talker :: | => Put(Int|TopBot) =\n"
           "    | => ch ->\n"
           "        on ch do\n"
           "            put 9\n"
           "            halt\n"
           "\nproc joiner :: | Put(Int|TopBot) => Put(Int|TopBot) =\n"
           "    | a => b -> a |=| b\n"
           "\nproc hearer :: | Put(Int|TopBot) => =\n"
           "    | ch => ->\n"
           "        on ch do\n"
           "            get v\n"
           "            halt\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        talker( | => x )\n"
           "        joiner( | x => y )\n"
           "        hearer( | y => )\n")
    out, _ = run_text(src)
    assert out.done
    gets = [ev for ev in out.trace if ev.kind == "GET"]
    assert gets and gets[0].payload == "9"
    assert any(ev.kind == "LINK" for ev in out.trace)


LINK_AFTER_FORK = (
    "proc joiner :: | Put(Int|TopBot), TopBot (*) TopBot => "
    "TopBot (*) TopBot =\n"
    "    | z, a => b -> do\n"
    "        get v on z\n"
    "        close z\n"
    "        a |=| b\n"
    "\nproc talker :: | => TopBot (*) TopBot =\n"
    "    | => x -> fork x as\n"
    "        l -> halt l\n"
    "        r -> halt r\n"
    "\nproc zsender :: | => Put(Int|TopBot) =\n"
    "    | => z -> do\n"
    "        put 1 on z\n"
    "        halt z\n"
    "\nproc hearer :: | TopBot (*) TopBot => =\n"
    "    | y => -> do\n"
    "        split y into p, q\n"
    "        close p\n"
    "        halt q\n"
    "\nproc run =\n"
    "    | => -> plug\n"
    "{branches}")

JOINER, TALKER = "joiner( | z, x => y )", "talker( | => x )"


def link_after_fork(first: str, second: str) -> str:
    branches = [first, second, "zsender( | => z )", "hearer( | y => )"]
    return LINK_AFTER_FORK.format(
        branches="".join(f"        {b}\n" for b in branches))


def _run_watched_text(src):
    prog = parse_source(src)
    check_program(prog)
    m = boot(prepare(prog), services=ServiceConfig.from_script([]))
    run_watched(m)
    assert not m.processes and not m.channels
    return m


@pytest.mark.parametrize("order", [(JOINER, TALKER), (TALKER, JOINER)],
                         ids=["joiner", "talker"])
def test_link_forwards_a_rewire_to_the_end_that_splits(order):
    # The fork's new channels hold the forker at end 0 and the splitter at
    # end 1, whatever ends the carrier had before the link fused it: with
    # joiner first, talker forks at end 1 of x and hearer splits at end 1
    # of the fused channel.
    m = _run_watched_text(link_after_fork(*order))
    kinds = [ev.kind for ev in m.trace]
    assert kinds.index("FORK") < kinds.index("LINK") < kinds.index("SPLIT")


# Each |=| after the fork adds one link to the pending ends' chain while
# the channel count stays at three.
FORWARDER_CHAIN = (
    "proc talker :: | => TopBot (*) TopBot =\n"
    "    | => x -> fork x as\n"
    "        l -> halt l\n"
    "        r -> halt r\n"
    "\nproc fwd :: | TopBot (*) TopBot => TopBot (*) TopBot =\n"
    "    | a => b -> a |=| b\n"
    "\nproc hearer :: | TopBot (*) TopBot => =\n"
    "    | y => -> do\n"
    "        split y into p, q\n"
    "        close p\n"
    "        halt q\n"
    "\nproc run =\n"
    "    | => -> plug\n"
    "        talker( | => x0 )\n"
    + "".join(f"        fwd( | x{i} => x{i + 1} )\n" for i in range(6)) +
    "        hearer( | x6 => )\n")


def test_rewire_in_flight_through_a_chain_of_forwarders():
    m = _run_watched_text(FORWARDER_CHAIN)
    assert [ev.kind for ev in m.trace].count("LINK") == 6


# Hcase and race arms that leave channels live, so commands follow them.
# A referee's hcase arms each close `a` and leave `b` and `out` live for
# the commands after the hcase.  Its Duel arm races `a` against `b`, each
# race arm leaving both live, and closes `a` after the race.  Both players
# have sent before the Duel race commits, so the seed decides that tie.
# The sink's race is not nested and continues too.
CONTINUING_ARMS = (
    "protocol Mode( | ) => S =\n"
    "    Duel :: TopBot => S\n"
    "    Turns :: TopBot => S\n"
    + "".join(f"\nproc {name} :: | => Mode( | ) =\n"
              f"    | => ctl -> do\n"
              f"        hput {handle} on ctl\n"
              f"        halt ctl\n"
              for name, handle in (("duel", "Duel"), ("turns", "Turns"))) +
    "\nproc player :: Int | => Put(Int|TopBot) =\n"
    "    n | => p -> do\n"
    "        put n on p\n"
    "        halt p\n"
    "\nproc referee :: | Mode( | ), Put(Int|TopBot), Put(Int|TopBot)"
    " => Put(Int|Put(Int|TopBot)) =\n"
    "    | ctl, a, b => out -> do\n"
    "        hcase ctl of\n"
    "            Duel -> do\n"
    "                close ctl\n"
    "                race\n"
    "                    a -> do\n"
    "                        get x on a\n"
    "                        get y on b\n"
    "                        put x on out\n"
    "                    b -> do\n"
    "                        get y on b\n"
    "                        get x on a\n"
    "                        put y on out\n"
    "                close a\n"
    "            Turns -> do\n"
    "                close ctl\n"
    "                get x on a\n"
    "                get y on b\n"
    "                put x on out\n"
    "                close a\n"
    "        close b\n"
    "        put 0 on out\n"
    "        halt out\n"
    "\nproc sink :: | Put(Int|Put(Int|TopBot)), Put(Int|Put(Int|TopBot))"
    " => =\n"
    "    | o1, o2 => -> do\n"
    "        race\n"
    "            o1 -> do\n"
    "                get r on o1\n"
    "                get t on o2\n"
    "            o2 -> do\n"
    "                get t on o2\n"
    "                get r on o1\n"
    "        get s on o1\n"
    "        close o1\n"
    "        get u on o2\n"
    "        halt o2\n"
    "\nproc run =\n"
    "    | => -> plug\n"
    "        duel( | => c1 )\n"
    "        player( 1 | => a1 )\n"
    "        player( 2 | => b1 )\n"
    "        referee( | c1, a1, b1 => o1 )\n"
    "        sink( | o1, o2 => )\n"
    "        turns( | => c2 )\n"
    "        player( 3 | => a2 )\n"
    "        player( 4 | => b2 )\n"
    "        referee( | c2, a2, b2 => o2 )\n")

# Unchecked: the referee's first command after its hcase names a channel
# it does not hold, so the run faults in the continuation of an arm.
CONTINUATION_FAULT = CONTINUING_ARMS.replace("        close b\n",
                                             "        close ghost\n")


def test_arms_continue_with_the_commands_after_them():
    prog = check_program(parse_source(CONTINUING_ARMS)).exec_program
    winners = set()
    for seed in range(4):
        m = boot(prog, seed, ServiceConfig.from_script([]))
        run_watched(m)
        assert not m.processes and not m.channels
        duel = [(ev.kind, ev.chan, ev.payload) for ev in m.trace
                if ev.pid == 4]
        # CALL, HCASE, the close in the arm, the race and its arm, the
        # close after the race, then the referee's commands after the
        # hcase.
        (_, won, _), first, second = duel[3:6]
        winners.add(won)
        lost = "b" if won == "a" else "a"
        assert [d[:2] for d in duel] == [
            ("CALL", None), ("HCASE", "ctl"), ("CLOSE", "ctl"),
            ("RACE", won), ("GET", won), ("GET", lost), ("PUT", "out"),
            ("CLOSE", "a"), ("CLOSE", "b"), ("PUT", "out"),
            ("HALT", "out")]
        assert (first[2], second[2]) == (("1", "2") if won == "a"
                                         else ("2", "1"))
        turns = [ev.kind for ev in m.trace if ev.pid == 9]
        assert turns == ["CALL", "HCASE", "CLOSE", "GET", "GET", "PUT",
                         "CLOSE", "CLOSE", "PUT", "HALT"]
        sink = [ev.kind for ev in m.trace if ev.pid == 5]
        assert sink == ["CALL", "RACE", "GET", "GET", "GET", "CLOSE",
                        "GET", "HALT"]
    assert winners == {"a", "b"}


@pytest.mark.parametrize("seed", [0, 1])
def test_a_fault_in_an_arms_continuation(seed):
    prog = prepare(parse_source(CONTINUATION_FAULT))
    m = boot(prog, seed, ServiceConfig.from_script([]), checked=False)
    with pytest.raises(MachineFault) as fault:
        m.run_to_completion()
    assert str(fault.value) == \
        "IllegalCommand: process 4 does not hold channel 'ghost'"
    assert m.steps == 18
    assert [ev.kind for ev in m.trace[-2:]] == ["PUT", "CLOSE"]


# A fork arm links its new channel before the peer splits, and the holder
# of the other end links it again: the split follows both fusions to the
# channel the pending end now sits in.
SPLIT_AFTER_LINKS = (
    "proc talker :: | Put(Int|TopBot) => Put(Int|TopBot) (*) TopBot =\n"
    "    | w => x -> fork x as\n"
    "        l -> l |=| w\n"
    "        r -> halt r\n"
    "\nproc ksender :: | => TopBot =\n"
    "    | => k -> halt k\n"
    "\nproc fwd :: | Put(Int|TopBot) => Put(Int|TopBot) =\n"
    "    | u => w -> plug\n"
    "        ksender( | => k )\n"
    "        do\n"
    "            close k\n"
    "            u |=| w\n"
    "\nproc usender :: | => Put(Int|TopBot) =\n"
    "    | => u -> do\n"
    "        put 5 on u\n"
    "        halt u\n"
    "\nproc zmaker :: | => Put(Int|TopBot) =\n"
    "    | => z -> plug\n"
    "        ksender( | => k )\n"
    "        do\n"
    "            close k\n"
    "            put 1 on z\n"
    "            halt z\n"
    "\nproc hearer :: | Put(Int|TopBot) (*) TopBot, Put(Int|TopBot) => =\n"
    "    | y, z => -> do\n"
    "        get v on z\n"
    "        close z\n"
    "        split y into p, q\n"
    "        get u on p\n"
    "        close p\n"
    "        halt q\n"
    "\nproc run =\n"
    "    | => -> plug\n"
    "        talker( | w => x )\n"
    "        fwd( | u => w )\n"
    "        usender( | => u )\n"
    "        hearer( | x, z => )\n"
    "        zmaker( | => z )\n")


def test_split_claims_an_end_that_links_moved():
    m = _run_watched_text(SPLIT_AFTER_LINKS)
    kinds = [ev.kind for ev in m.trace]
    assert kinds.count("LINK") == 2
    assert kinds.index("LINK") < kinds.index("SPLIT")
    assert [ev.payload for ev in m.trace if ev.kind == "GET"] == ["1", "5"]


def test_every_holder_of_a_moved_end_follows_the_link():
    # Unchecked: `twice` gets x's end as both `a` and `b`, and its plug
    # hands the two names to `left` and `right`.  When `joiner`'s |=| moves
    # that end into the fused channel, both holders follow it: `left`
    # receives through the fused channel, and `right` then finds the end
    # `left` closed.
    src = ("proc twice =\n"
           "    | a, b => -> plug\n"
           "        left( | a => )\n"
           "        right( | b => )\n"
           "\nproc left =\n"
           "    | a => -> do\n"
           "        get v on a\n"
           "        halt a\n"
           "\nproc right =\n"
           "    | b => -> do\n"
           "        get w on b\n"
           "        halt b\n"
           "\nproc joiner =\n"
           "    | x => y -> x |=| y\n"
           "\nproc sender =\n"
           "    | => y -> do\n"
           "        put 1 on y\n"
           "        halt y\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        twice( | x, x => )\n"
           "        joiner( | x => y )\n"
           "        sender( | => y )\n")
    m = boot(prepare(parse_source(src)),
             services=ServiceConfig.from_script([]), checked=False)
    with pytest.raises(MachineFault) as e:
        m.run_to_completion()
    assert str(e.value) == "IllegalCommand: channel 'b' is gone"
    assert [ev.render() for ev in m.trace][-3:] == [
        "#9 pid=4 GET ch=a#2 payload=1", "#10 pid=4 HALT ch=a#2",
        "#11 pid=5 CALL payload=right"]


def test_pending_end_of_a_closed_carrier_is_unowned():
    # Unchecked: the peer halts the carrier instead of splitting it, so no
    # one will ever claim the far ends of the fork's new channels.
    src = ("proc talker =\n"
           "    | => x -> fork x as\n"
           "        l -> halt l\n"
           "        r -> halt r\n"
           "\nproc hearer =\n"
           "    | y => -> halt y\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        talker( | => x )\n"
           "        hearer( | x => )\n")
    m = boot(prepare(parse_source(src)),
             services=ServiceConfig.from_script([]), checked=False)
    with pytest.raises(MachineFault) as e:
        m.run_to_completion()
    assert str(e.value) == ("Conservation: live channel l#1 has an "
                            "unowned end")


def test_neg_flips_the_session_direction():
    # x : Neg(Put(Int|TopBot)) at the output end behaves, after neg, like
    # the input end of Put(Int|TopBot): it may get.
    src = ("proc sender :: | Neg(Put(Int|TopBot)) => =\n"
           "    | x => -> do\n"
           "        neg x as y\n"
           "        put 4 on y\n"
           "        halt y\n"
           "\nproc receiver :: | => Neg(Put(Int|TopBot)) =\n"
           "    | => x -> do\n"
           "        neg x as y\n"
           "        get v on y\n"
           "        halt y\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        receiver( | => w )\n"
           "        sender( | w => )\n")
    out, _ = run_text(src)
    assert out.done
    assert [ev.payload for ev in out.trace if ev.kind == "GET"] == ["4"]


# ---------------------------------------------------------------------------
# higher-order values

def test_listing9_store_use_roundtrip():
    out, cfg = run_corpus("listing9.campl")
    assert out.done
    assert cfg.outputs == [
        "Server says: Running the stored process", "Hello World!"]
    assert any(ev.kind == "USE" for ev in out.trace)


def test_stored_process_captures_variables():
    src = (
        "proc run =\n"
        "    | console => -> plug\n"
        "        maker( | => ch )\n"
        "        runner( | ch, console => )\n"
        "\nproc maker =\n"
        "    | => ch -> do\n"
        "        get greeting on ch\n"
        "        put store(proc anon :: | Console => =\n"
        "            | c => -> do\n"
        "                hput ConsolePut on c\n"
        "                put greeting on c\n"
        "                hput ConsoleClose on c\n"
        "                halt c\n"
        "            ) on ch\n"
        "        halt ch\n"
        "\nproc runner :: "
        "| Get([Char]| Put(Store(|Console=>) | TopBot)), Console => =\n"
        "    | ch, console => -> do\n"
        '        put "captured!" on ch\n'
        "        get boxed on ch\n"
        "        close ch\n"
        "        use(boxed)( | console => )\n")
    out, cfg = run_text(src)
    assert out.done
    assert cfg.outputs == ["captured!"]


# One put of each kind of value, the last a stored process that captures
# `n`; the receiver answers with the string `n` reads.
PAYLOADS = (
    "proc greet :: | Console => =\n"
    "    | c => -> do\n"
    "        hput ConsoleClose on c\n"
    "        halt c\n"
    "\nproc sender =\n"
    "    | => ch -> do\n"
    "        put 7 on ch\n"
    "        put -3 on ch\n"
    "        put 'x' on ch\n"
    '        put "say \\"hi\\"" on ch\n'
    "        put True on ch\n"
    "        put store(greet) on ch\n"
    "        get n on ch\n"
    "        put store(proc kept :: | Console => =\n"
    "            | c => -> do\n"
    "                hput ConsolePut on c\n"
    "                put n on c\n"
    "                hput ConsoleClose on c\n"
    "                halt c\n"
    "            ) on ch\n"
    "        halt ch\n"
    "\nproc receiver :: | Put(Int| Put(Int| Put(Char| Put([Char]| "
    "Put(Bool| Put(Store(|Console=>)| Get([Char]| "
    "Put(Store(|Console=>)| TopBot)))))))), Console => =\n"
    "    | ch, console => -> do\n"
    "        get a on ch\n"
    "        get b on ch\n"
    "        get c on ch\n"
    "        get d on ch\n"
    "        get e on ch\n"
    "        get f on ch\n"
    '        put "kept" on ch\n'
    "        get g on ch\n"
    "        close ch\n"
    "        use(g)( | console => )\n"
    "\nproc run =\n"
    "    | console => -> plug\n"
    "        sender( | => ch )\n"
    "        receiver( | ch, console => )\n")


def test_payloads_of_every_value_kind_render_alike_everywhere():
    # A put's or get's row keeps the value itself, rendered only when an
    # event is built: the view, its negative indices and slices, the hook
    # and `step()` all print the same payload.
    expected = ["7", "-3", "'x'", '"say "hi""', "True", "store(greet)",
                '"kept"', "store(kept)"]
    program = check_program(parse_source(PAYLOADS)).exec_program
    streamed = []
    m = boot(program, services=ServiceConfig.from_script([]),
             trace_hook=streamed.append)
    out = m.run_to_completion()
    assert out.done and m.config.outputs == ["kept"]
    events = list(m.trace)
    for kind in ("PUT", "GET"):
        assert [ev.payload for ev in events
                if ev.kind == kind and ev.chan == "ch"] == expected
    assert streamed == events == out.trace[:]
    stepwise = boot(program, services=ServiceConfig.from_script([]))
    stepped = []
    while stepwise.processes:
        stepped.append(stepwise.step(stepwise.pick()))
    assert stepped == events == list(stepwise.trace)
    assert m.trace[-7] == events[19]
    assert (m.trace[-7].kind, m.trace[-7].payload) == ("GET", "store(kept)")
    assert [ev.payload for ev in m.trace[2:8]] == expected[:6]


# ---------------------------------------------------------------------------
# faults stay loud

def test_illegal_desync_is_a_fault_not_a_hang():
    # Unchecked program that gets where a handle arrives.
    src = ("proc a =\n"
           "    | => ch -> do\n"
           "        hput ConsoleClose on ch\n"
           "        halt ch\n"
           "\nproc b =\n"
           "    | ch => -> do\n"
           "        get x on ch\n"
           "        close ch\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        a( | => ch )\n"
           "        b( | ch => )\n")
    prog = parse_source(src)
    m = boot(prepare(prog), services=ServiceConfig.from_script([]),
             checked=False)
    with pytest.raises(MachineFault):
        m.run_to_completion()


def test_run_to_completion_rejects_nonpositive_limit():
    prog = parse_source(corpus_text("listing1.campl"))
    m = boot(prepare(prog), services=ServiceConfig.from_script([]))
    with pytest.raises(ValueError):
        m.run_to_completion(0)


def test_race_with_continuation_resumes_after_the_arm():
    src = (
        "proc p :: | Put(Int|TopBot), Put(Int|TopBot) => =\n"
        "    | a, b => -> do\n"
        "        race\n"
        "            a -> do\n"
        "                get x on a\n"
        "                get y on b\n"
        "            b -> do\n"
        "                get y on b\n"
        "                get x on a\n"
        "        close a\n"
        "        halt b\n"
        "\nproc s :: | => Put(Int|TopBot) =\n"
        "    | => c ->\n"
        "        on c do\n"
        "            put 1\n"
        "            halt\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        s( | => a )\n"
        "        s( | => b )\n"
        "        p( | a, b => )\n")
    out, _ = run_text(src)
    assert out.done
    closes = [ev for ev in out.trace if ev.kind in ("CLOSE", "HALT")]
    assert closes[-1].kind == "HALT"


def test_use_with_sequential_arguments():
    src = (
        "proc speak :: Int, [Char] | Console => =\n"
        "    n, word | console => -> do\n"
        "        hput ConsolePut on console\n"
        "        put word on console\n"
        "        hput ConsoleClose on console\n"
        "        halt console\n"
        "\nproc run =\n"
        "    | console => -> do\n"
        '        use(store(speak))( 3, "parametrized" | console => )\n')
    out, cfg = run_text(src)
    assert out.done
    assert cfg.outputs == ["parametrized"]


def test_unchecked_missing_channel_is_a_precise_fault():
    src = ("proc run =\n"
           "    | => -> plug\n"
           "        a( | => ch )\n"
           "        b( | ch => )\n"
           "\nproc a =\n"
           "    | => ch -> do\n"
           "        put 1 on ch\n"
           "        put 2 on phantom\n"
           "        halt ch\n"
           "\nproc b =\n"
           "    | ch => -> do\n"
           "        get x on ch\n"
           "        get y on ch\n"
           "        close ch\n")
    prog = parse_source(src)
    m = boot(prepare(prog), services=ServiceConfig.from_script([]),
             checked=False)
    with pytest.raises(MachineFault) as e:
        m.run_to_completion()
    assert "phantom" in str(e.value)


def test_unchecked_call_arity_is_a_fault():
    src = ("proc takes_two =\n"
           "    | a, b => -> do\n"
           "        close a\n"
           "        close b\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        takes_two( | x => )\n"
           "        do\n"
           "            halt x\n")
    prog = parse_source(src)
    m = boot(prepare(prog), services=ServiceConfig.from_script([]),
             checked=False)
    with pytest.raises(MachineFault) as e:
        m.run_to_completion()
    assert "mismatched" in str(e.value)


def _unchecked_fault(src):
    """Run `src` as `campl run --unchecked` would; the fault that ended
    the run and the machine's step count when it was raised.  A second
    run of the same program must fault alike, and neither run keeps a
    plan, so no fault is memoised."""
    program = prepare(parse_source(src))
    faults = []
    for _ in range(2):
        m = boot(program, services=ServiceConfig.from_script([]),
                 checked=False)
        with pytest.raises(MachineFault) as e:
            m.run_to_completion()
        faults.append((str(e.value), m.steps))
        assert not m.plans
    assert faults[0] == faults[1]
    return faults[0]


# A run that takes two steps before its last command, which faults.
_TWO_STEPS_THEN = ("proc run =\n"
                   "    | console => -> do\n"
                   "        hput ConsolePut on console\n"
                   "        put \"hi\" on console\n")


@pytest.mark.parametrize("branches, name", [
    (("halt x", "close y"), "x"),
    (("halt a", "close a", "close b"), "b"),
    (("halt x", "close x", "close x"), "x"),
], ids=["one-user", "second-name-one-user", "three-users"])
def test_unchecked_plug_name_must_join_two_branches(branches, name):
    src = _TWO_STEPS_THEN + "        plug\n" + "".join(
        f"            do\n                {b}\n" for b in branches)
    assert _unchecked_fault(src) == (
        f"IllegalCommand: plug channel {name!r} must join exactly two "
        f"branches", 2)


def test_unchecked_hcase_without_an_arm_for_the_handle():
    src = ("proc a =\n"
           "    | => ch -> do\n"
           "        hput Foo on ch\n"
           "        halt ch\n"
           "\nproc b =\n"
           "    | ch => ->\n"
           "        hcase ch of\n"
           "            Bar -> close ch\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        a( | => ch )\n"
           "        b( | ch => )\n")
    assert _unchecked_fault(src) == (
        "IllegalCommand: hcase on 'ch' has no arm for handle Foo", 5)


def test_unchecked_hcase_takes_the_first_arm_for_a_handle():
    # Only the first arm closes `ch`; the second would wait on it forever.
    src = ("proc a =\n"
           "    | => ch -> do\n"
           "        hput Foo on ch\n"
           "        halt ch\n"
           "\nproc b =\n"
           "    | ch => ->\n"
           "        hcase ch of\n"
           "            Foo -> close ch\n"
           "            Foo -> do\n"
           "                get x on ch\n"
           "                close ch\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        a( | => ch )\n"
           "        b( | ch => )\n")
    out, _ = run_text(src, check=False)
    assert out.done and out.trace[-1].kind == "CLOSE"


# Unchecked programs whose plug, or fork, hands on none of the held
# `console`: it is released, closed and unowned, and the run sticks on the
# Console channel that nobody closes.
RELEASING = {
    "plug": ("proc run =\n"
             "    | console => -> plug\n"
             "        do\n"
             "            halt x\n"
             "        do\n"
             "            close x\n"),
    "fork": ("proc run =\n"
             "    | console => -> plug\n"
             "        do\n"
             "            fork c as\n"
             "                l -> halt l\n"
             "                r -> halt r\n"
             "            halt console\n"
             "        do\n"
             "            split c into l, r\n"
             "            close l\n"
             "            close r\n"),
}


@pytest.mark.parametrize("kind, steps", [("plug", 3), ("fork", 7)])
def test_unchecked_hand_off_releases_what_no_child_uses(kind, steps):
    out, _ = run_text(RELEASING[kind], check=False)
    assert (out.kind, out.steps, out.stuck) == (OutcomeKind.STUCK, steps, {})
    (service,) = out.machine.channels.values()
    console = service.peer
    assert console.owner is None and console.closed


# A process of two input channels for a run to call or use.
_F_TAKES_TWO = ("proc f =\n"
                "    | a, b => -> do\n"
                "        close a\n"
                "        close b\n\n")


@pytest.mark.parametrize("invoke, kind", [
    ("f( | console, phantom => )", "call"),
    ("use(store(f))( | console, phantom => )", "use"),
    ("f( | phantom, ghost => )", "call"),
], ids=["call", "use", "call-first-of-two"])
def test_unchecked_invocation_of_an_unheld_channel(invoke, kind):
    # The fault names the first argument the process does not hold.
    src = _F_TAKES_TWO + _TWO_STEPS_THEN + f"        {invoke}\n"
    assert _unchecked_fault(src) == (
        f"IllegalCommand: {kind} passes unknown channel 'phantom'", 2)


@pytest.mark.parametrize("command", [
    "close ghost", "halt ghost",
    "fork ghost as\n            l -> halt l\n            r -> halt r",
], ids=["close", "halt", "fork"])
def test_unchecked_end_command_on_an_unheld_channel(command):
    src = _TWO_STEPS_THEN + f"        {command}\n"
    assert _unchecked_fault(src) == (
        "IllegalCommand: process 0 does not hold channel 'ghost'", 2)


@pytest.mark.parametrize("invoke, fault", [
    ("ghost( | console => )", "call to unknown process 'ghost'"),
    ("f( | console => )", "call to 'f' with mismatched argument counts"),
    ("f(1 | console, x => )", "call to 'f' with mismatched argument counts"),
    ("use(store(f))( | console => )",
     "use of 'f' with mismatched argument counts"),
    ("use(3)( | console => )", "use of a non-process value 3"),
], ids=["unknown-process", "call-channels", "call-values", "use-channels",
        "use-non-process"])
def test_unchecked_invocation_faults(invoke, fault):
    src = _F_TAKES_TWO + _TWO_STEPS_THEN + f"        {invoke}\n"
    assert _unchecked_fault(src) == (f"IllegalCommand: {fault}", 2)


@pytest.mark.parametrize("asked", ["a", "b"])
def test_unchecked_link_of_two_consoles_keeps_both_service_ends(asked):
    # `a |=| b` leaves each console facing the other, so the line the
    # asked console sent toward `run` reaches the other one, which cannot
    # take it, whichever of the two was asked.
    src = ("proc run =\n"
           "    | a, b => -> do\n"
           f"        hput ConsoleGet on {asked}\n"
           "        a |=| b\n")
    m = boot(prepare(parse_source(src)),
             services=ServiceConfig.from_script(["hi"]), checked=False)
    with pytest.raises(MachineFault) as e:
        run_watched(m)
    assert (str(e.value), m.steps) == (
        "IllegalCommand: console cannot dispatch on ValMsg", 2)


def test_unchecked_drain_skips_a_reaped_console():
    # `close a` ends the first Console's channel, so the drain that serves
    # the second passes over the first one's service end.
    src = ("proc run =\n"
           "    | a, b => -> do\n"
           "        hput ConsoleClose on a\n"
           "        close a\n"
           "        hput ConsolePut on b\n"
           "        put \"second\" on b\n"
           "        hput ConsoleClose on b\n"
           "        close b\n")
    config = ServiceConfig.from_script([])
    m = boot(prepare(parse_source(src)), services=config, checked=False)
    run_watched(m)
    first, second = m.services
    assert first.cid not in m.channels and second.cid not in m.channels
    assert config.outputs == ["second"]
    assert not m.processes and m.steps == 6


def _do(header: str, commands: tuple) -> str:
    """A process clause `header -> do` running `commands`, each indented
    as one command of the block."""
    return f"    {header} -> do\n" + "".join(
        f"        {line}\n" for command in commands
        for line in command.split("\n"))


@pytest.mark.parametrize("talker, listener, fault, steps", [
    (("put 1 on x", "halt x"), ("hcase x of\n    H -> halt x",),
     "hcase on 'x' found ValMsg at the queue head", 5),
    (("put 1 on x", "halt x"), ("split x into a, b",),
     "split on 'x' found ValMsg at the queue head", 5),
    (("halt x",), ("get v on x", "halt x"),
     "get on 'x' found CloseMsg at the queue head", 4),
    (("fork x as\n    l -> halt l\n    r -> halt r",),
     ("get v on x", "halt x"),
     "get on 'x' found RewireMsg at the queue head", 4),
], ids=["hcase-value", "split-value", "get-close", "get-fork"])
def test_unchecked_command_on_the_wrong_kind_of_message(talker, listener,
                                                        fault, steps):
    # The fault names the kind of message the waiting command found.
    src = ("proc talker =\n" + _do("| => x", talker)
           + "\nproc listener =\n" + _do("| x =>", listener)
           + "\nproc run =\n"
             "    | => -> plug\n"
             "        talker( | => x )\n"
             "        listener( | x => )\n")
    assert _unchecked_fault(src) == (f"IllegalCommand: {fault}", steps)


@pytest.mark.parametrize("body, fault, steps", [
    (("fork console as\n    l -> halt l\n    r -> halt r",),
     "console cannot dispatch on RewireMsg", 1),
    (("hput ConsolePut on console", "put 5 on console", "halt console"),
     "console expected a string after ConsolePut", 2),
], ids=["fork", "put-int"])
def test_unchecked_console_message_of_the_wrong_kind(body, fault, steps):
    src = "proc run =\n" + _do("| console =>", body)
    assert _unchecked_fault(src) == (f"IllegalCommand: {fault}", steps)


THREE_WAY_RACE = (
    "proc shout :: | => Put(Int|TopBot) =\n"
    "    | => c ->\n"
    "        on c do\n"
    "            put 7\n"
    "            halt\n"
    "\nproc drain_rest :: | Put(Int|TopBot), Put(Int|TopBot) => =\n"
    "    | p, q => -> do\n"
    "        get x on p\n"
    "        close p\n"
    "        get y on q\n"
    "        halt q\n"
    "\nproc judge :: | Put(Int|TopBot), Put(Int|TopBot), Put(Int|TopBot) => =\n"
    "    | a, b, c => ->\n"
    "        race\n"
    "            a -> do\n"
    "                get w on a\n"
    "                close a\n"
    "                drain_rest( | b, c => )\n"
    "            b -> do\n"
    "                get w on b\n"
    "                close b\n"
    "                drain_rest( | a, c => )\n"
    "            c -> do\n"
    "                get w on c\n"
    "                close c\n"
    "                drain_rest( | a, b => )\n"
    "\nproc run =\n"
    "    | => -> plug\n"
    "        shout( | => a )\n"
    "        shout( | => b )\n"
    "        shout( | => c )\n"
    "        judge( | a, b, c => )\n")


def test_three_way_race_covers_all_winners_across_seeds():
    prog = parse_source(THREE_WAY_RACE)
    check_program(prog)
    ex = prepare(prog)
    winners = set()
    for seed in range(48):
        m = boot(ex, seed=seed, services=ServiceConfig.from_script([]))
        out = m.run_to_completion()
        assert out.done
        winners.add(next(ev.chan for ev in out.trace if ev.kind == "RACE"))
    assert winners == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# dispatch

COMMAND_CLASSES = typing.get_args(model.Command)

# One instance of every command class, acting on channel "c".
SAMPLES = {
    PutVal: PutVal(IntLit(1), "c"),
    GetVal: GetVal("v", "c"),
    HPut: HPut("H", "c"),
    HCase: HCase("c", (Arm("H", (Halt("c"),)),)),
    Close: Close("c"),
    Halt: Halt("c"),
    Fork: Fork("c", (Arm("l", (Halt("l"),)),
                     Arm("r", (Halt("r"),)))),
    Split: Split("c", "l", "r"),
    Plug: Plug(((Halt("x"),), (Close("x"),))),
    Race: Race((Arm("c", (Close("c"),)),)),
    Call: Call("p", (), ("c",), ()),
    Use: Use(VarRef("s"), (), ("c",), ()),
    Link: Link("c", "c"),
    NegIntro: NegIntro("c", "n"),
    OnDo: OnDo("c", (Halt(None),)),
}


def test_handler_table_covers_every_command_but_on_do_once():
    assert sorted(k.__name__ for k in _HANDLERS) == sorted(
        k.__name__ for k in COMMAND_CLASSES if k is not OnDo)
    assert all(f.__name__.startswith("_exec_") for f in _HANDLERS.values())


def test_raw_on_do_is_an_illegal_command():
    # `prepare` desugars `on ... do`; a body that skipped it still faults.
    prog = parse_source("proc run =\n"
                        "    | => -> on x do\n"
                        "        halt\n")
    m = boot(ExecProgram(dict(prog.procs)), checked=False)
    p = m.pick()
    with pytest.raises(MachineFault) as e:
        m.step(p)
    assert str(e.value) == "IllegalCommand: cannot execute OnDo"


def _waiting_at(cmd, message=None):
    """A machine with one process about to run `cmd`, holding end 1 of
    channel "c"; `message`, if any, is queued toward that end."""
    m = Machine(ExecProgram({}))
    far, end = m._new_channel("c")
    far.owner = 99
    end.owner = 0
    if message is not None:
        end.inbox.append(message)
    p = ProcessInstance(0, "t", {}, {"c": end}, (cmd,), 0)
    m.processes[0] = p
    return m, p


def test_exactly_the_waiting_kinds_wait():
    assert set(SAMPLES) == set(COMMAND_CLASSES)
    assert _WAITING == {GetVal, HCase, Split, Race}
    for kind, cmd in SAMPLES.items():
        m, p = _waiting_at(cmd)
        assert m.enabled(p) is (kind not in _WAITING), kind.__name__
        assert m.waiting_on(p) == ([0] if kind in _WAITING else []), \
            kind.__name__


@pytest.mark.parametrize("kind, message", [
    (GetVal, IntLit(1)), (HCase, "H"),
    (Split, RewireMsg(0, (None, None))), (Race, IntLit(1))],
    ids=["GetVal", "HCase", "Split", "Race"])
def test_a_waiting_kind_runs_once_its_message_is_queued(kind, message):
    m, p = _waiting_at(SAMPLES[kind], message)
    assert m.enabled(p)
