"""The machine's per-node plans against a per-step reference.

A plug, fork, call or use applies a plan of how it wires names.  A checked
machine keeps a plug's, fork's or call's in its own `plans`, built the
first time its node runs; a use builds its plan on every step, as an
unchecked machine builds every plan.  An hcase keeps no plan: it takes the
first arm with the handle it received.  Before every such step, these
tests work the plan out again from the machine's state, the way the
machine did on every step before plans, and after the step compare it
with the memoised one (checked programs, memoised kinds only) and with
what the step did.  A step whose reference predicts a fault must raise
exactly that fault and leave no plan behind, so the next visit checks
again.  `elaborate.free_chans` is the reference for the free-channel sets,
as for `ExecProgram.free_chans`.
"""

import operator
from collections import Counter

import pytest

from campl.checker import check_program
from campl.diagnostics import CheckFailure, ParseFailure
from campl.elaborate import prepare
from campl.model import Call, Fork, HCase, Plug, Use
from campl.parser import parse_source
from campl.printer import roundtrip_print
from campl.runtime import (
    BootError, Machine, MachineFault, StoredProc, boot,
)
from campl.services import ScriptExhausted, ServiceConfig
from conftest import (
    CORPUS, corpus_text, free_chans, line_drops, load_perfbench, sub_bodies,
)
from genprog import gen_program, with_forwarder
from test_goldens import (
    ARMS, ARMS_FAULTS, ARMS_SEEDS, FAULTS, LINKS, MESSAGES, STDIN_SCRIPT,
)
from test_monitor import ALIASED, LEFT_UNDER_NO_NAME
from test_runtime import RELEASING

PLANNED = (Plug, Fork, Call, Use, HCase)
MEMOISED = (Plug, Fork, Call)


def _inherits(held, children) -> tuple[list[set], set]:
    """What each child inherits of `held`, and what is released, done as
    the machine's hand-off did it: each held name goes to the first child
    that uses it and does not bind it itself.  `children` are (names the
    body uses, names the child binds itself)."""
    rest = dict.fromkeys(held)
    inherited = []
    for uses, own in children:
        mine = uses & rest.keys() - own
        for name in mine:
            del rest[name]
        inherited.append(set(mine))
    return inherited, set(rest)


def _reference(machine: Machine, p, cmd):
    """(node id, expected plan) for the step `p` is about to take, where
    the plan is the fault its node must raise or a dict of what it must
    hold (for an hcase, what it must enter); None when the step faults
    before it looks a plan up."""
    kind = type(cmd)
    if kind is Plug:
        held = frozenset(p.chan_env)
        frees = [free_chans(b) for b in cmd.branches]
        users: dict[str, list[int]] = {}
        for i, names in enumerate(frees):
            for name in names - held:
                users.setdefault(name, []).append(i)
        key = id(cmd)
        for name in sorted(users):
            if len(users[name]) != 2:
                return key, (f"IllegalCommand: plug channel {name!r} must "
                             f"join exactly two branches")
        inherited, released = _inherits(held, [(names, set())
                                               for names in frees])
        return key, {
            "joins": tuple((n, *users[n]) for n in sorted(users)),
            "payload": ",".join(sorted(users)) or None,
            "children": [(f"/{i}", b, inherited[i],
                          {n for n in users if i in users[n]} | inherited[i])
                         for i, b in enumerate(cmd.branches)],
            "released": released}
    if kind is Fork:
        if cmd.chan not in p.chan_env \
                or p.chan_env[cmd.chan].cid not in machine.channels:
            return None
        held = frozenset(p.chan_env) - {cmd.chan}
        inherited, released = _inherits(held, [
            (free_chans(a.body), {a.name}) for a in cmd.arms])
        return id(cmd), {
            "joins": (),
            "fork_payload": ",".join(f"{a.name}#{machine._next_cid + i}"
                                     for i, a in enumerate(cmd.arms)),
            "children": [(f".{a.name}", a.body, inherited[i],
                          {a.name} | inherited[i])
                         for i, a in enumerate(cmd.arms)],
            "released": released}
    if kind is HCase:
        e = p.chan_env.get(cmd.chan)
        if e is None or e.cid not in machine.channels or not e.inbox \
                or type(e.inbox[0]) is not str:
            return None
        bodies = {}
        for a in cmd.arms:
            bodies.setdefault(a.handle, a.body)
        return id(cmd), {"bodies": bodies, "handle": e.inbox[0]}
    if kind is Call:
        proc, key = machine.program.procs.get(cmd.callee), id(cmd)
        if proc is None:
            return key, (f"IllegalCommand: call to unknown process "
                         f"{cmd.callee!r}")
        target = "call to"
    else:
        try:
            value = machine._eval(p, cmd.stored)
        except MachineFault:
            return None
        if not isinstance(value, StoredProc):
            return None
        proc, key, target = value.proc, id(cmd), "use of"
    params = proc.in_params + proc.out_params
    args = cmd.in_chans + cmd.out_chans
    if len(cmd.seq_args) != len(proc.seq_params) or len(args) != len(params):
        return key, (f"IllegalCommand: {target} {proc.name!r} with "
                     f"mismatched argument counts")
    return key, {"proc": proc,
                 "seq_pairs": tuple(zip(proc.seq_params, cmd.seq_args)),
                 "chan_pairs": tuple(zip(params, args))}


def _compare(machine, parent, cmd, key, expected, before, ev, fault):
    """On a checked machine, the plan memoised under `key` against
    `expected`; on any machine, what the step did against the reference:
    the fault it raised, the body an hcase entered, the ends a call or use
    bound, and the children a plug or fork made and the ends it released.
    `parent` is the stepping process's name, the ends it held and the
    commands after the one it ran.  An hcase or use step keeps no plan."""
    plans = machine.plans
    if isinstance(expected, str):
        assert fault == expected
        assert key not in plans, "a plan was kept for a faulting node"
        return
    plan = None
    if type(cmd) not in MEMOISED:
        assert key not in plans, "an hcase or use kept a plan"
    elif machine.checked:
        plan = plans[key]
        assert before is None or plan is before, "a memoised plan was rebuilt"
    name, held, rest = parent
    if type(cmd) is HCase:
        bodies, handle = expected["bodies"], expected["handle"]
        if handle not in bodies:
            assert fault == (f"IllegalCommand: hcase on {cmd.chan!r} has "
                             f"no arm for handle {handle}")
        elif fault is None and ev.pid in machine.processes:
            # The arm's own commands, then those after the hcase; with
            # nothing after it, the arm's own tuple.
            q, entered = machine.processes[ev.pid], bodies[handle] + rest
            assert q.at == 0 and len(q.body) == len(entered)
            assert all(map(operator.is_, q.body, entered))
            assert rest or q.body is bodies[handle]
        return
    if type(cmd) in (Call, Use):
        if plan is not None:
            assert (plan.proc, plan.seq_pairs, plan.chan_pairs) == (
                expected["proc"], expected["seq_pairs"],
                expected["chan_pairs"])
            assert plan.proc is expected["proc"]
        if fault is None:
            # Each parameter binds the end its argument named, the last
            # one for a repeated parameter.
            q = machine.processes[ev.pid]
            assert q.body is expected["proc"].body and q.at == 0
            assert q.chan_env == {param: held[arg] for param, arg
                                  in expected["chan_pairs"]}
        return
    if plan is not None:
        assert plan.joins == expected["joins"]
        assert [(s, b, set(inh)) for s, b, inh in plan.children] == \
            [c[:3] for c in expected["children"]]
        assert all(list(inh) == sorted(inh) for _, _, inh in plan.children)
        assert set(plan.released) == expected["released"]
        assert list(plan.released) == sorted(plan.released)
    assert fault is None
    if type(cmd) is Plug:
        assert ev.payload == expected["payload"]
        assert plan is None or plan.payload == ev.payload
    else:
        assert ev.payload == expected["fork_payload"]
    children = [q for pid, q in machine.processes.items()
                if pid >= machine._next_pid - len(expected["children"])]
    assert [(q.name, set(q.chan_env)) for q in children] == [
        (name + suffix, names)
        for suffix, _, _, names in expected["children"]]
    for q, (_, _, inherited, _) in zip(children, expected["children"]):
        assert all(q.chan_env[n] is held[n] for n in inherited)
    for n in expected["released"]:
        assert held[n].owner is None and held[n].closed, f"{n} kept"


def run_compared(machine: Machine, seen: Counter,
                 max_steps: int = 5000) -> None:
    """Run `machine` as `run_to_completion` would, comparing the plan of
    every plug, fork, call, use and hcase step with its reference."""
    for _ in range(max_steps):
        try:
            machine.assert_invariants()
        except MachineFault:
            return
        p = machine.pick()
        if p is None:
            return
        cmd = p.body[p.at]
        parent = p.name, dict(p.chan_env), p.body[p.at + 1:]
        ref = _reference(machine, p, cmd) if type(cmd) in PLANNED else None
        before = None if ref is None else machine.plans.get(ref[0])
        ev = fault = None
        try:
            ev = machine.step(p)
        except (MachineFault, ScriptExhausted) as e:
            fault = str(e)
        if ref is not None:
            _compare(machine, parent, cmd, *ref, before, ev, fault)
            seen[type(cmd).__name__] += 1
        if fault is not None:
            return
    raise AssertionError(f"no end after {max_steps} steps")


def _boot(program, seed: int, checked: bool) -> Machine | None:
    try:
        return boot(program, seed, ServiceConfig.from_script(
            STDIN_SCRIPT.splitlines()), checked=checked)
    except BootError:
        return None


def _compare_all(texts, seeds=(0, 3)) -> Counter:
    """Run each program once per seed, each run on a machine of its own.
    A program the checker rejects runs unchecked and must leave no plan
    behind."""
    seen: Counter = Counter()
    for label, text in texts:
        try:
            source = parse_source(text)
        except ParseFailure:
            continue
        try:
            program, checked = check_program(source).exec_program, True
        except CheckFailure:
            program, checked = prepare(source), False
        for seed in seeds:
            machine = _boot(program, seed, checked)
            if machine is None:
                break
            try:
                run_compared(machine, seen)
            except AssertionError as e:
                raise AssertionError(f"{label}, seed {seed}: {e}") from None
            assert checked or not machine.plans, \
                f"{label}: an unchecked run kept a plan"
    return seen


def _corpus():
    return [(p.name, p.read_text(encoding="utf-8"))
            for p in sorted(CORPUS.glob("*.campl"))]


def test_plans_agree_on_the_corpus():
    seen = _compare_all(_corpus())
    assert set(seen) == {k.__name__ for k in PLANNED}, seen


def test_each_machine_builds_its_own_plans():
    # Two checked machines on one `ExecProgram` share no plan: the second
    # starts with none and builds each of its own, and its run is the
    # first one's.
    ran = 0
    for name, text in _corpus():
        try:
            program = check_program(parse_source(text)).exec_program
        except CheckFailure:
            continue
        first = _boot(program, 0, True)
        if first is None:
            continue
        first.run_to_completion()
        second = _boot(program, 0, True)
        assert second.plans == {}, name
        second.run_to_completion()
        assert [ev.render() for ev in second.trace] == \
            [ev.render() for ev in first.trace], name
        assert second.plans.keys() == first.plans.keys(), name
        assert all(second.plans[k] is not first.plans[k]
                   for k in first.plans), name
        ran += bool(first.plans)
    assert ran >= 5


def test_plans_agree_on_the_golden_programs():
    programs = {**FAULTS, **LINKS, **MESSAGES, **RELEASING,
                **LEFT_UNDER_NO_NAME, "aliased": ALIASED}
    seen = _compare_all(sorted(programs.items()))
    assert set(seen) == {"Plug", "Fork", "Call", "Use"}, seen


def test_plans_agree_on_continuing_arms():
    # Hcases whose arm is followed by the commands after the hcase, and a
    # run that faults in such a continuation.
    seen = _compare_all(sorted({**ARMS, **ARMS_FAULTS}.items()),
                        seeds=ARMS_SEEDS)
    assert set(seen) == {"Plug", "Call", "HCase"}, seen


def test_plans_agree_on_generated_programs():
    texts = []
    for seed in range(60):
        program = gen_program(seed)
        if seed % 3 == 0:
            program = with_forwarder(program, seed % 2, seed)
        texts.append((f"genprog {seed}", roundtrip_print(program)))
    seen = _compare_all(texts, seeds=(1,))
    assert {"Plug", "Fork", "Call"} <= set(seen), seen


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.campl")))
def test_plans_agree_on_unchecked_line_drops(name):
    texts = [(f"{name} without line {line}", text)
             for line, text in line_drops(corpus_text(name))]
    _compare_all(texts, seeds=(0,))


def _memoised_nodes(body):
    for cmd in body:
        if type(cmd) in MEMOISED:
            yield cmd
        for sub in sub_bodies(cmd):
            yield from _memoised_nodes(sub)


def test_churn_builds_each_plan_once(monkeypatch):
    # A checked machine builds one plan per plug, fork or call node: a
    # handful of builds for about 11,000 such steps a run.
    source = load_perfbench("programs").churn(1).sources["churn0"]
    program = check_program(parse_source(source)).exec_program
    builds = []
    build = Machine._plan

    def counted(machine, key, *args):
        builds.append(key)
        return build(machine, key, *args)

    monkeypatch.setattr(Machine, "_plan", counted)
    nodes = sum(1 for d in program.procs.values()
                for _ in _memoised_nodes(d.body))
    planned = 0
    for seed in (0, 1):
        kinds: Counter = Counter()
        builds.clear()
        machine = boot(program, seed, ServiceConfig.from_script([]),
                       lambda ev: kinds.update([ev.kind]))
        assert machine.run_to_completion().done
        planned += sum(kinds[k] for k in ("PLUG", "FORK", "CALL"))
        assert 0 < len(builds) == len(set(builds)) == len(machine.plans) \
            <= nodes
    assert planned > 20_000
