"""Deterministic cooperative machine for checked (or deliberately
unchecked) programs.

Processes are command-sequence continuations over a table of two-ended
channels, each with one FIFO queue per direction.  One command of one
process runs per step; among the processes whose next command can make
progress, the smallest pid goes first.  Races are the only consumers of
the seeded RNG, so a (program, seed, input script) triple fixes the whole
trace.  A topology monitor asserts after every step that the graph of
processes and live channels stays an acyclic forest and that every live
channel has exactly one owner per end.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .elaborate import ExecProgram, free_chans
from .model import (
    BoolLit, Call, CharLit, Close, Expr, Fork, GetVal, Halt, HCase, HPut,
    IntLit, Link, NegIntro, Plug, ProcDef, PutVal, Race, Split, StoreOf,
    StringLit, Use, VarRef,
)
from .services import ConsoleEndpoint, ServiceConfig

DEFAULT_MAX_STEPS = 100_000


# ---------------------------------------------------------------------------
# values and messages

@dataclass(frozen=True)
class IntV:
    value: int

    def render(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CharV:
    value: str

    def render(self) -> str:
        return f"'{self.value}'"


@dataclass(frozen=True)
class StringV:
    value: str

    def render(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True)
class BoolV:
    value: bool

    def render(self) -> str:
        return "True" if self.value else "False"


@dataclass(frozen=True)
class StoredProc:
    """A process encoded as a sequential value: its definition plus the
    captured variable environment.  Channels are never captured."""
    proc: ProcDef
    env: tuple

    def render(self) -> str:
        return f"store({self.proc.name})"


Value = IntV | CharV | StringV | BoolV | StoredProc


@dataclass
class ValMsg:
    value: Value


@dataclass
class HandleMsg:
    handle: str


@dataclass
class CloseMsg:
    pass


@dataclass
class RewireMsg:
    cid_left: int
    cid_right: int


class MachineFault(Exception):
    """An internal invariant failed: command/type desync, a topology
    cycle, or a service error.  Unreachable for checked programs except
    via the console script running dry."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.fault_message = message


class BootError(Exception):
    pass


# ---------------------------------------------------------------------------
# machine state

SERVICE = "service"
PENDING = "pending"


@dataclass
class EndState:
    owner: object          # pid (int) | (SERVICE, label) | None
    closed: bool = False


@dataclass
class ChannelState:
    cid: int
    label: str
    ends: list[EndState]
    # queues[d] carries messages sent from end d toward end 1-d
    queues: tuple[deque, deque] = field(
        default_factory=lambda: (deque(), deque()))

    @property
    def live(self) -> bool:
        return not (self.ends[0].closed or self.ends[1].closed)


@dataclass
class ProcessInstance:
    pid: int
    name: str
    seq_env: dict[str, Value]
    chan_env: dict[str, tuple[int, int]]     # name -> (cid, end)
    frames: list[list]                       # stack of [body, index]

    def next_command(self):
        return self.frames[-1][0][self.frames[-1][1]]


@dataclass
class TraceEvent:
    step: int
    pid: int
    kind: str
    chan: str | None = None
    cid: int | None = None
    payload: str | None = None

    def render(self) -> str:
        parts = [f"#{self.step}", f"pid={self.pid}", self.kind]
        if self.chan is not None:
            parts.append(f"ch={self.chan}#{self.cid}")
        if self.payload is not None:
            parts.append(f"payload={self.payload}")
        return " ".join(parts)


class OutcomeKind(Enum):
    DONE = "done"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


@dataclass
class Outcome:
    kind: OutcomeKind
    steps: int
    trace: list[TraceEvent]
    machine: "Machine"
    stuck: dict[int, list[int]] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.kind is OutcomeKind.DONE


def resolve_race(ready: list, rng: random.Random):
    """Uniform choice among the arms that can already deliver.  Always
    consumes exactly one draw so traces stay aligned across seeds."""
    if not ready:
        raise ValueError("resolve_race needs at least one ready arm")
    return ready[rng.randrange(len(ready))]


class Machine:
    def __init__(self, program: ExecProgram, seed: int = 0,
                 services: ServiceConfig | None = None,
                 trace_hook: Callable[[TraceEvent], None] | None = None):
        self.program = program
        self.rng = random.Random(seed)
        self.config = services if services is not None else ServiceConfig()
        self.trace_hook = trace_hook
        self.processes: dict[int, ProcessInstance] = {}
        self.channels: dict[int, ChannelState] = {}
        self.services: dict[int, ConsoleEndpoint] = {}
        self.steps = 0
        self.trace: list[TraceEvent] = []
        self._next_pid = 0
        self._next_cid = 0

    # -- construction -----------------------------------------------------

    def _new_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _new_channel(self, label: str) -> ChannelState:
        cid = self._next_cid
        self._next_cid += 1
        ch = ChannelState(cid, label, [EndState(None), EndState(None)])
        self.channels[cid] = ch
        return ch

    def boot(self) -> "Machine":
        run = self.program.procs.get("run")
        if run is None:
            raise BootError("MissingRun: the program defines no process "
                            "named 'run'")
        if run.seq_params:
            raise BootError("run cannot take sequential parameters")
        if run.out_params:
            raise BootError("run cannot take output channels")
        pid = self._new_pid()
        chan_env: dict[str, tuple[int, int]] = {}
        proc = ProcessInstance(pid, "run", {}, chan_env, [[run.body, 0]])
        for name in run.in_params:
            ch = self._new_channel(name)
            ch.ends[0].owner = (SERVICE, name)
            ch.ends[1].owner = pid
            chan_env[name] = (ch.cid, 1)
            self.services[ch.cid] = ConsoleEndpoint(self.config)
        self.processes[pid] = proc
        self._drain_services()
        return self

    # -- scheduling --------------------------------------------------------

    def _binding(self, p: ProcessInstance, name: str | None
                 ) -> tuple[int, int]:
        if name is None or name not in p.chan_env:
            raise MachineFault("IllegalCommand",
                               f"process {p.pid} does not hold channel "
                               f"{name!r}")
        cid, end = p.chan_env[name]
        if cid not in self.channels:
            raise MachineFault("IllegalCommand",
                               f"channel {name!r} is gone")
        return cid, end

    def _incoming(self, p: ProcessInstance, name: str) -> deque:
        cid, end = self._binding(p, name)
        return self.channels[cid].queues[1 - end]

    def _outgoing(self, p: ProcessInstance, name: str) -> deque:
        cid, end = self._binding(p, name)
        return self.channels[cid].queues[end]

    def enabled(self, p: ProcessInstance) -> bool:
        cmd = p.next_command()
        try:
            if isinstance(cmd, (GetVal, HCase, Split)):
                return bool(self._incoming(p, cmd.chan))
            if isinstance(cmd, Race):
                return any(self._race_ready(p, cmd))
        except MachineFault:
            # Desynced binding (unchecked programs only): report it at
            # execution time with a precise message.
            return True
        return True

    def _race_ready(self, p: ProcessInstance, cmd: Race) -> list:
        ready = []
        for arm in cmd.arms:
            q = self._incoming(p, arm.chan)
            if q and isinstance(q[0], ValMsg):
                ready.append(arm)
        return ready

    def waiting_on(self, p: ProcessInstance) -> list[int]:
        cmd = p.next_command()
        if isinstance(cmd, (GetVal, HCase, Split)):
            return [p.chan_env[cmd.chan][0]]
        if isinstance(cmd, Race):
            return [p.chan_env[a.chan][0] for a in cmd.arms]
        return []

    def pick(self) -> ProcessInstance | None:
        for pid in sorted(self.processes):
            if self.enabled(self.processes[pid]):
                return self.processes[pid]
        return None

    # -- running -----------------------------------------------------------

    def step(self, p: ProcessInstance) -> TraceEvent:
        cmd = p.next_command()
        ev = self._execute(p, cmd)
        self.steps += 1
        self.trace.append(ev)
        if self.trace_hook is not None:
            self.trace_hook(ev)
        self._drain_services()
        return ev

    def run_to_completion(self, max_steps: int = DEFAULT_MAX_STEPS) -> Outcome:
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        while True:
            self.assert_invariants()
            if not self.processes:
                if self.channels:
                    return Outcome(OutcomeKind.STUCK, self.steps, self.trace,
                                   self, {})
                return Outcome(OutcomeKind.DONE, self.steps, self.trace, self)
            p = self.pick()
            if p is None:
                stuck = {pid: self.waiting_on(q)
                         for pid, q in sorted(self.processes.items())}
                return Outcome(OutcomeKind.STUCK, self.steps, self.trace,
                               self, stuck)
            if self.steps >= max_steps:
                return Outcome(OutcomeKind.STEP_LIMIT, self.steps,
                               self.trace, self)
            self.step(p)

    # -- invariants ---------------------------------------------------------

    def resolve_owner(self, owner):
        """Follow pending far-end markers to the process that currently
        holds the channel carrying the not-yet-consumed rewire."""
        hops = 0
        while (isinstance(owner, tuple) and len(owner) == 3
               and owner[0] == PENDING):
            ch = self.channels.get(owner[1])
            if ch is None:
                return None
            owner = ch.ends[owner[2]].owner
            hops += 1
            if hops > len(self.channels) + 1:
                return None
        return owner

    def check_topology(self) -> list[int]:
        """Union-find acyclicity over live channels; returns the channel
        ids that closed a cycle (empty when the graph is a forest)."""
        parent: dict[object, object] = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        bad: list[int] = []
        for cid in sorted(self.channels):
            ch = self.channels[cid]
            if not ch.live:
                continue
            a = self.resolve_owner(ch.ends[0].owner)
            b = self.resolve_owner(ch.ends[1].owner)
            if a is None or b is None:
                continue
            ra, rb = find(a), find(b)
            if ra == rb:
                bad.append(cid)
            else:
                parent[ra] = rb
        return bad

    def assert_invariants(self) -> None:
        bad = self.check_topology()
        if bad:
            raise MachineFault(
                "CycleFound",
                f"process network contains a cycle through channel(s) "
                f"{', '.join(str(c) for c in bad)}")
        for cid, ch in self.channels.items():
            for e in ch.ends:
                if ch.live and self.resolve_owner(e.owner) is None:
                    raise MachineFault(
                        "Conservation",
                        f"live channel {ch.label}#{cid} has an unowned end")

    # -- command execution ---------------------------------------------------

    def _execute(self, p: ProcessInstance, cmd) -> TraceEvent:
        if isinstance(cmd, PutVal):
            value = self._eval(p, cmd.expr)
            self._outgoing(p, cmd.chan).append(ValMsg(value))
            self._advance(p)
            return self._event(p, "PUT", cmd.chan, value.render())
        if isinstance(cmd, GetVal):
            msg = self._pop(p, cmd.chan, ValMsg, "get")
            p.seq_env[cmd.binder] = msg.value
            self._advance(p)
            return self._event(p, "GET", cmd.chan, msg.value.render())
        if isinstance(cmd, HPut):
            self._outgoing(p, cmd.chan).append(HandleMsg(cmd.handle))
            self._advance(p)
            return self._event(p, "HPUT", cmd.chan, cmd.handle)
        if isinstance(cmd, HCase):
            msg = self._pop(p, cmd.chan, HandleMsg, "hcase")
            arm = next((a for a in cmd.arms if a.handle == msg.handle), None)
            if arm is None:
                raise MachineFault("IllegalCommand",
                                   f"hcase on {cmd.chan!r} has no arm for "
                                   f"handle {msg.handle}")
            ev = self._event(p, "HCASE", cmd.chan, msg.handle)
            self._advance(p, push=arm.body)
            return ev
        if isinstance(cmd, Close):
            ev = self._event(p, "CLOSE", cmd.chan)
            self._close_end(p, cmd.chan)
            self._advance(p)
            return ev
        if isinstance(cmd, Halt):
            ev = self._event(p, "HALT", cmd.chan)
            self._close_end(p, cmd.chan)
            self._finish(p)
            return ev
        if isinstance(cmd, Fork):
            return self._exec_fork(p, cmd)
        if isinstance(cmd, Split):
            return self._exec_split(p, cmd)
        if isinstance(cmd, Plug):
            return self._exec_plug(p, cmd)
        if isinstance(cmd, Race):
            ready = self._race_ready(p, cmd)
            arm = resolve_race(ready, self.rng)
            ev = self._event(p, "RACE", arm.chan)
            self._advance(p, push=arm.body)
            return ev
        if isinstance(cmd, (Call, Use)):
            return self._exec_invoke(p, cmd)
        if isinstance(cmd, Link):
            return self._exec_link(p, cmd)
        if isinstance(cmd, NegIntro):
            binding = self._binding(p, cmd.chan)
            del p.chan_env[cmd.chan]
            p.chan_env[cmd.fresh] = binding
            self._advance(p)
            return self._event(p, "NEG", cmd.fresh, None, cid=binding[0])
        raise MachineFault("IllegalCommand",
                           f"cannot execute {type(cmd).__name__}")

    # -- helpers -------------------------------------------------------------

    def _event(self, p: ProcessInstance, kind: str, chan: str | None,
               payload: str | None = None, cid: int | None = None
               ) -> TraceEvent:
        if chan is not None and cid is None:
            cid = p.chan_env[chan][0] if chan in p.chan_env else -1
        return TraceEvent(self.steps, p.pid, kind, chan, cid, payload)

    def _advance(self, p: ProcessInstance, push=None) -> None:
        """Move past the current command, optionally entering an arm body
        as a nested frame, and finish the process when nothing remains."""
        p.frames[-1][1] += 1
        if push is not None:
            p.frames.append([push, 0])
        while p.frames and p.frames[-1][1] >= len(p.frames[-1][0]):
            p.frames.pop()
        if not p.frames:
            self._finish(p)

    def _finish(self, p: ProcessInstance) -> None:
        self.processes.pop(p.pid, None)
        # Checked programs always end with an empty channel environment;
        # under --unchecked a leak just detaches the ends.
        for cid, end in p.chan_env.values():
            ch = self.channels.get(cid)
            if ch is not None and ch.ends[end].owner == p.pid:
                ch.ends[end].owner = None
                ch.ends[end].closed = True
                self._reap(ch)
        p.chan_env.clear()

    def _pop(self, p: ProcessInstance, chan: str, want, command: str):
        q = self._incoming(p, chan)
        if not q:
            raise MachineFault("IllegalCommand",
                               f"{command} on {chan!r} scheduled with an "
                               f"empty queue")
        msg = q.popleft()
        if not isinstance(msg, want):
            raise MachineFault("IllegalCommand",
                               f"{command} on {chan!r} found "
                               f"{type(msg).__name__} at the queue head")
        return msg

    def _close_end(self, p: ProcessInstance, chan: str) -> None:
        cid, end = self._binding(p, chan)
        del p.chan_env[chan]
        ch = self.channels[cid]
        ch.queues[end].append(CloseMsg())
        ch.ends[end].closed = True
        self._reap(ch)

    def _reap(self, ch: ChannelState) -> None:
        if ch.ends[0].closed and ch.ends[1].closed:
            self.channels.pop(ch.cid, None)
            self.services.pop(ch.cid, None)

    def _eval(self, p: ProcessInstance, e: Expr) -> Value:
        if isinstance(e, IntLit):
            return IntV(e.value)
        if isinstance(e, CharLit):
            return CharV(e.value)
        if isinstance(e, StringLit):
            return StringV(e.value)
        if isinstance(e, BoolLit):
            return BoolV(e.value)
        if isinstance(e, VarRef):
            if e.name not in p.seq_env:
                raise MachineFault("IllegalCommand",
                                   f"unbound variable {e.name!r}")
            return p.seq_env[e.name]
        if isinstance(e, StoreOf):
            if isinstance(e.target, str):
                d = self.program.procs.get(e.target)
                if d is None:
                    raise MachineFault("IllegalCommand",
                                       f"store of unknown process "
                                       f"{e.target!r}")
                return StoredProc(d, ())
            return StoredProc(e.target, tuple(p.seq_env.items()))
        raise MachineFault("IllegalCommand",
                           f"cannot evaluate {type(e).__name__}")

    def _spawn(self, name: str, seq_env: dict, chan_env: dict,
               body) -> ProcessInstance:
        pid = self._new_pid()
        proc = ProcessInstance(pid, name, seq_env, chan_env, [[body, 0]])
        self.processes[pid] = proc
        for cid, end in chan_env.values():
            self.channels[cid].ends[end].owner = pid
        return proc

    def _exec_fork(self, p: ProcessInstance, cmd: Fork) -> TraceEvent:
        cid, end = self._binding(p, cmd.chan)
        ch = self.channels[cid]
        arms = cmd.arms
        new_chs = []
        for arm in arms:
            nch = self._new_channel(arm.name)
            nch.ends[end].owner = None          # set by spawn below
            # The far end is claimed when the peer dequeues the rewire;
            # until then it belongs to whoever holds the old channel's far
            # end, which may itself migrate through further forks.
            nch.ends[1 - end].owner = (PENDING, cid, 1 - end)
            new_chs.append(nch)
        ch.queues[end].append(RewireMsg(new_chs[0].cid, new_chs[1].cid))
        ch.ends[end].closed = True
        ch.ends[end].owner = None

        rest = {n: b for n, b in p.chan_env.items() if n != cmd.chan}
        claimed: set[str] = set()
        ev = self._event(p, "FORK", cmd.chan,
                         f"{arms[0].name}#{new_chs[0].cid},"
                         f"{arms[1].name}#{new_chs[1].cid}", cid=cid)
        del self.processes[p.pid]
        for arm, nch in zip(arms, new_chs):
            names = free_chans(arm.body) - {arm.name}
            slice_env = {n: rest[n] for n in rest
                         if n in names and n not in claimed}
            claimed |= set(slice_env)
            slice_env[arm.name] = (nch.cid, end)
            self._spawn(f"{p.name}.{arm.name}", dict(p.seq_env), slice_env,
                        arm.body)
        for n, (lcid, lend) in rest.items():
            if n not in claimed:
                lch = self.channels.get(lcid)
                if lch is not None:
                    lch.ends[lend].owner = None
                    lch.ends[lend].closed = True
                    self._reap(lch)
        self._reap(ch)
        return ev

    def _exec_split(self, p: ProcessInstance, cmd: Split) -> TraceEvent:
        msg = self._pop(p, cmd.chan, RewireMsg, "split")
        cid, end = p.chan_env.pop(cmd.chan)
        ch = self.channels[cid]
        ch.ends[end].closed = True
        ch.ends[end].owner = None
        self._reap(ch)
        # The splitting side keeps its end index on both new channels.
        for name, ncid in ((cmd.left, msg.cid_left),
                           (cmd.right, msg.cid_right)):
            nch = self.channels[ncid]
            nch.ends[end].owner = p.pid
            p.chan_env[name] = (ncid, end)
        self._advance(p)
        return self._event(p, "SPLIT", cmd.left, f"{cmd.right}",
                           cid=msg.cid_left)

    def _exec_plug(self, p: ProcessInstance, cmd: Plug) -> TraceEvent:
        live = set(p.chan_env)
        frees = [free_chans(b) for b in cmd.branches]
        plugged = sorted(set().union(*frees) - live)
        made: dict[str, ChannelState] = {}
        next_end: dict[str, int] = {}
        for name in plugged:
            owners = [i for i, f in enumerate(frees) if name in f]
            if len(owners) != 2:
                raise MachineFault(
                    "IllegalCommand",
                    f"plug channel {name!r} must join exactly two branches")
            made[name] = self._new_channel(name)
            next_end[name] = 0
        ev = self._event(p, "PLUG", None,
                         ",".join(plugged) if plugged else None)
        claimed: set[str] = set()
        del self.processes[p.pid]
        for idx, branch in enumerate(cmd.branches):
            env: dict[str, tuple[int, int]] = {}
            for name in frees[idx] & live:
                if name not in claimed:
                    env[name] = p.chan_env[name]
                    claimed.add(name)
            for name in frees[idx] - live:
                ch = made[name]
                env[name] = (ch.cid, next_end[name])
                next_end[name] += 1
            self._spawn(f"{p.name}/{idx}", dict(p.seq_env), env, branch)
        for n in live - claimed:
            lcid, lend = p.chan_env[n]
            lch = self.channels.get(lcid)
            if lch is not None:
                lch.ends[lend].owner = None
                lch.ends[lend].closed = True
                self._reap(lch)
        return ev

    def _exec_invoke(self, p: ProcessInstance, cmd: Call | Use
                     ) -> TraceEvent:
        """Replace `p`'s continuation with a called or stored process."""
        if type(cmd) is Call:
            verb, d = "call", self.program.procs.get(cmd.callee)
            if d is None:
                raise MachineFault("IllegalCommand",
                                   f"call to unknown process {cmd.callee!r}")
            target, name, seq_env = f"call to {d.name!r}", d.name, {}
        else:
            value = self._eval(p, cmd.stored)
            if not isinstance(value, StoredProc):
                raise MachineFault("IllegalCommand",
                                   f"use of a non-process value "
                                   f"{value.render()}")
            verb, d = "use", value.proc
            target, name = f"use of {d.name!r}", f"use:{d.name}"
            seq_env = dict(value.env)
        if (len(cmd.seq_args) != len(d.seq_params)
                or len(cmd.chan_args) != len(d.chan_params)):
            raise MachineFault("IllegalCommand",
                               f"{target} with mismatched argument counts")
        for param, e in zip(d.seq_params, cmd.seq_args):
            seq_env[param] = self._eval(p, e)
        chan_env = {}
        for param, arg in zip(d.chan_params, cmd.chan_args):
            if arg not in p.chan_env:
                raise MachineFault("IllegalCommand",
                                   f"{verb} passes unknown channel {arg!r}")
            chan_env[param] = p.chan_env[arg]
        p.name = name
        p.seq_env = seq_env
        p.chan_env = chan_env
        p.frames = [[d.body, 0]]
        return self._event(p, verb.upper(), None, d.name)

    def _exec_link(self, p: ProcessInstance, cmd: Link) -> TraceEvent:
        lcid, lend = self._binding(p, cmd.left)
        rcid, rend = self._binding(p, cmd.right)
        lch = self.channels[lcid]
        rch = self.channels[rcid]
        peer_l = lch.ends[1 - lend]
        peer_r = rch.ends[1 - rend]
        fused = self._new_channel(f"{lch.label}|=|{rch.label}")
        fused.ends[0] = EndState(peer_l.owner, peer_l.closed)
        fused.ends[1] = EndState(peer_r.owner, peer_r.closed)
        # Toward the right peer: what this process already sent that way,
        # then whatever the left peer had in flight toward this process.
        fused.queues[0].extend(rch.queues[rend])
        fused.queues[0].extend(lch.queues[1 - lend])
        fused.queues[1].extend(lch.queues[lend])
        fused.queues[1].extend(rch.queues[1 - rend])
        self._rebind_channel(lcid, fused.cid, 1 - lend, 0)
        self._rebind_channel(rcid, fused.cid, 1 - rend, 1)
        for och in self.channels.values():
            for e in och.ends:
                if not (isinstance(e.owner, tuple) and len(e.owner) == 3
                        and e.owner[0] == PENDING):
                    continue
                if e.owner[1] == lcid:
                    e.owner = (PENDING, fused.cid,
                               0 if e.owner[2] == 1 - lend else 1)
                elif e.owner[1] == rcid:
                    e.owner = (PENDING, fused.cid,
                               1 if e.owner[2] == 1 - rend else 0)
        if lcid in self.services:
            self.services[fused.cid] = self.services.pop(lcid)
        if rcid in self.services:
            self.services[fused.cid] = self.services.pop(rcid)
        self.channels.pop(lcid, None)
        self.channels.pop(rcid, None)
        ev = self._event(p, "LINK", cmd.left,
                         f"{cmd.right}->#{fused.cid}", cid=lcid)
        p.chan_env.clear()
        del self.processes[p.pid]
        self._reap(fused)
        return ev

    def _rebind_channel(self, old_cid: int, new_cid: int, old_end: int,
                        new_end: int) -> None:
        owner = self.channels[old_cid].ends[old_end].owner
        if isinstance(owner, int) and owner in self.processes:
            q = self.processes[owner]
            for name, (cid, end) in list(q.chan_env.items()):
                if cid == old_cid and end == old_end:
                    q.chan_env[name] = (new_cid, new_end)

    # -- services ------------------------------------------------------------

    def _drain_services(self) -> None:
        for cid in sorted(self.services):
            endpoint = self.services.get(cid)
            ch = self.channels.get(cid)
            if endpoint is None or ch is None:
                continue
            service_end = 0 if ch.ends[0].owner == (SERVICE, ch.label) \
                else next(i for i in (0, 1)
                          if not isinstance(ch.ends[i].owner, int))
            incoming = ch.queues[1 - service_end]
            outgoing = ch.queues[service_end]
            while incoming:
                reply = endpoint.handle(incoming.popleft())
                if reply is not None:
                    outgoing.append(reply)
                if endpoint.closed:
                    ch.ends[service_end].closed = True
                    self._reap(ch)
                    break


def boot(program: ExecProgram, seed: int = 0,
         services: ServiceConfig | None = None,
         trace_hook: Callable[[TraceEvent], None] | None = None) -> Machine:
    """Create and boot a machine: one process for `run`, one service
    channel per service parameter in its context, RNG seeded."""
    return Machine(program, seed, services, trace_hook).boot()
