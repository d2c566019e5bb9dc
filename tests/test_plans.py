"""The machine's per-node plans against a per-step reference.

A plug, fork, call, use or hcase takes how it wires names from
`ExecProgram.plans`, built the first time its node runs (for a plug or a
fork, once per set of names its process holds).  Before every such step,
these tests work the plan out again from the machine's state, the way the
machine did on every step before plans, and after the step compare it
with the memoised one and with the processes the step made.  A step whose
reference predicts a fault must raise exactly that fault and leave no plan
behind, so the next visit checks again.  `elaborate.free_chans` is the
reference for the free-channel sets, as for `ExecProgram.free_chans`.
"""

from collections import Counter

import pytest

from campl.checker import check_program
from campl.diagnostics import ParseFailure
from campl.elaborate import free_chans, prepare
from campl.model import Call, Fork, HCase, Plug, Use, sub_bodies
from campl.parser import parse_source
from campl.printer import roundtrip_print
from campl.runtime import (
    BootError, HandleMsg, Machine, MachineFault, StoredProc, boot,
)
from campl.services import ScriptExhausted, ServiceConfig
from conftest import CORPUS, load_perfbench
from genprog import gen_program, with_forwarder
from test_goldens import FAULTS, LINKS, MESSAGES, STDIN_SCRIPT
from test_monitor import ALIASED, _line_drops
from test_runtime import RELEASING

PLANNED = (Plug, Fork, Call, Use, HCase)


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
    """(plan key, expected plan) for the step `p` is about to take, where
    the plan is the fault its node must raise or a dict of what it must
    hold; None when the step faults before it looks a plan up."""
    kind = type(cmd)
    if kind is Plug:
        held = frozenset(p.chan_env)
        frees = [free_chans(b) for b in cmd.branches]
        users: dict[str, list[int]] = {}
        for i, names in enumerate(frees):
            for name in names - held:
                users.setdefault(name, []).append(i)
        key = (id(cmd), held)
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
        return (id(cmd), held), {
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
                or type(e.inbox[0]) is not HandleMsg:
            return None
        bodies = {}
        for a in cmd.arms:
            bodies.setdefault(a.handle, a.body)
        return id(cmd), {"bodies": bodies, "handle": e.inbox[0].handle}
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
        proc, key, target = value.proc, (id(cmd), id(value.proc)), "use of"
    params = proc.in_params + proc.out_params
    args = cmd.in_chans + cmd.out_chans
    if len(cmd.seq_args) != len(proc.seq_params) or len(args) != len(params):
        return key, (f"IllegalCommand: {target} {proc.name!r} with "
                     f"mismatched argument counts")
    return key, {"proc": proc,
                 "seq_pairs": tuple(zip(proc.seq_params, cmd.seq_args)),
                 "chan_pairs": tuple(zip(params, args)),
                 "local_checks": machine._local_checks}


def _compare(machine, parent, cmd, key, expected, before, ev, fault):
    """The plan memoised under `key` against `expected`; the children the
    step made, and the ends it released, against the reference.  `parent`
    is the stepping process's name and the ends it held."""
    plans = machine.program.plans
    if isinstance(expected, str):
        assert fault == expected
        assert key not in plans, "a plan was kept for a faulting node"
        return
    plan = plans[key]
    assert before is None or plan is before, "a memoised plan was rebuilt"
    assert plan[0] is cmd
    if type(cmd) is HCase:
        assert plan[1] == expected["bodies"]
        handle = expected["handle"]
        if handle not in expected["bodies"]:
            assert fault == (f"IllegalCommand: hcase on {cmd.chan!r} has "
                             f"no arm for handle {handle}")
        return
    if type(cmd) in (Call, Use):
        assert (plan.proc, plan.seq_pairs, plan.chan_pairs) == (
            expected["proc"], expected["seq_pairs"], expected["chan_pairs"])
        assert plan.proc is expected["proc"]
        if fault is None and expected["local_checks"]:
            # The machine tested the ends it bound for an alias per step.
            ends = list(machine.processes[ev.pid].chan_env.values())
            assert plan.aliases is (len(set(ends)) < len(ends))
        return
    assert plan.joins == expected["joins"]
    assert [(s, b, set(inherits)) for s, b, inherits in plan.children] == \
        [c[:3] for c in expected["children"]]
    assert all(list(inh) == sorted(inh) for _, _, inh in plan.children)
    assert set(plan.released) == expected["released"]
    assert list(plan.released) == sorted(plan.released)
    assert fault is None
    if type(cmd) is Plug:
        assert plan.payload == ev.payload == expected["payload"]
    else:
        assert ev.payload == expected["fork_payload"]
    children = [q for pid, q in machine.processes.items()
                if pid >= machine._next_pid - len(expected["children"])]
    name, held = parent
    assert [(q.name, set(q.chan_env)) for q in children] == [
        (name + suffix, names)
        for suffix, _, _, names in expected["children"]]
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
        body, index = p.frames[-1]
        cmd, parent = body[index], (p.name, dict(p.chan_env))
        ref = _reference(machine, p, cmd) if type(cmd) in PLANNED else None
        before = None if ref is None else machine.program.plans.get(ref[0])
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


def _boot(program, seed: int) -> Machine | None:
    try:
        return boot(program, seed, ServiceConfig.from_script(
            STDIN_SCRIPT.splitlines()))
    except BootError:
        return None


def _compare_all(texts, seeds=(0, 3)) -> Counter:
    """Run each program twice per seed on one `ExecProgram`, so the
    second run finds the plans the first one built."""
    seen: Counter = Counter()
    for label, text in texts:
        try:
            source = parse_source(text)
        except ParseFailure:
            continue
        program = prepare(source)
        for seed in seeds:
            for _ in range(2):
                machine = _boot(program, seed)
                if machine is None:
                    break
                try:
                    run_compared(machine, seen)
                except AssertionError as e:
                    raise AssertionError(f"{label}, seed {seed}: {e}") \
                        from None
    return seen


def _corpus():
    return [(p.name, p.read_text(encoding="utf-8"))
            for p in sorted(CORPUS.glob("*.campl"))]


def test_plans_agree_on_the_corpus():
    seen = _compare_all(_corpus())
    assert set(seen) == {k.__name__ for k in PLANNED}, seen


def test_plans_agree_on_the_golden_programs():
    programs = {**FAULTS, **LINKS, **MESSAGES, **RELEASING,
                "aliased": ALIASED}
    seen = _compare_all(sorted(programs.items()))
    assert set(seen) == {"Plug", "Fork", "Call", "Use"}, seen


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
             for line, text in _line_drops(name)]
    _compare_all(texts, seeds=(0,))


def _planned_nodes(body):
    for cmd in body:
        if type(cmd) in PLANNED:
            yield cmd
        for sub in sub_bodies(cmd):
            yield from _planned_nodes(sub)


def test_churn_builds_each_plan_once(monkeypatch):
    # Every node of `churn0` runs under one set of held names, so a plan
    # per node: a handful of builds for about 12,000 planned steps.
    source = load_perfbench("programs").churn(1).sources["churn0"]
    program = check_program(parse_source(source)).exec_program
    builds = []
    build = Machine._new_plan

    def counted(machine, key, *args):
        builds.append(key)
        return build(machine, key, *args)

    monkeypatch.setattr(Machine, "_new_plan", counted)
    kinds: Counter = Counter()
    for seed in (0, 1):
        outcome = boot(program, seed, ServiceConfig.from_script([]),
                       lambda ev: kinds.update([ev.kind])).run_to_completion()
        assert outcome.done
    nodes = sum(1 for d in program.procs.values()
                for _ in _planned_nodes(d.body))
    planned = sum(kinds[k] for k in ("PLUG", "FORK", "CALL", "USE", "HCASE"))
    assert planned > 20_000
    assert 0 < len(builds) == len(set(builds)) == len(program.plans) <= nodes
