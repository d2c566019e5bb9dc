"""Deterministic cooperative machine for checked (or deliberately
unchecked) programs.

Processes are command-sequence continuations over a table of two-ended
channels; each end holds a FIFO inbox of the messages sent to it.  Values
are the program's own literal nodes and stored processes.  One command of
one process runs per step, through a table of handlers keyed by command
class; among the processes whose next command can make progress, the
smallest pid goes first.  Races are the only consumers of the seeded RNG,
so a (program, seed, input script) triple fixes the whole trace.

How a plug, fork, call, use or hcase wires names is worked out once per
node (a plug or fork: per node and set of held names) and memoised in
`ExecProgram.plans`; a step applies the plan.

A topology monitor checks before every step that the graph of processes
and live channels is an acyclic forest and that every end of a live
channel has an owner.  The first check, and any check not made right
after one step, scans the whole network.  Otherwise it checks only what
that step recorded: nothing after a value, handle, race, call, use or neg
step; the pending ends of released ends; and the channels the step
created, for cycles among themselves (one or two by comparing their
owners).  Whatever a local check flags goes to the full scan, which
raises the fault.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from .elaborate import ExecProgram
from .model import (
    BoolLit, Call, CharLit, Close, Expr, Fork, GetVal, Halt, HCase, HPut,
    IntLit, Link, NegIntro, Plug, ProcDef, PutVal, Race, Split, StoreOf,
    StringLit, Use, VarRef,
)
from .services import (
    CONSOLE_CLOSE, CONSOLE_GET, CONSOLE_PUT, ScriptExhausted, ServiceConfig,
)

DEFAULT_MAX_STEPS = 100_000

# The commands that wait for a message; any other command can always run.
_WAITING = frozenset({GetVal, HCase, Split, Race})


# ---------------------------------------------------------------------------
# values and messages

@dataclass(frozen=True)
class StoredProc:
    """A process encoded as a sequential value: its definition plus the
    captured variable environment.  Channels are never captured."""
    proc: ProcDef
    env: tuple


Value = IntLit | CharLit | StringLit | BoolLit | StoredProc


def render(value: Value) -> str:
    """A value as the trace prints it."""
    if isinstance(value, StoredProc):
        return f"store({value.proc.name})"
    if isinstance(value, CharLit):
        return f"'{value.value}'"
    if isinstance(value, StringLit):
        return f'"{value.value}"'
    return str(value.value)


@dataclass(slots=True)
class ValMsg:
    value: Value


@dataclass(slots=True)
class HandleMsg:
    handle: str


@dataclass(slots=True)
class CloseMsg:
    pass


@dataclass(slots=True)
class RewireMsg:
    """A fork's message to the splitter: the ends it will claim, and the
    left channel's id at the fork, which its SPLIT event prints."""
    cid_left: int
    ends: tuple[EndState, EndState]


class MachineFault(Exception):
    """An internal invariant failed: command/type desync, a topology
    cycle, or a service error.  Unreachable for checked programs except
    via the console script running dry."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class BootError(Exception):
    pass


# ---------------------------------------------------------------------------
# per-node plans, built on a node's first step and kept in
# `ExecProgram.plans`; a build that faults stores nothing, so every later
# step checks again.

class HandOff(NamedTuple):
    """How a plug or fork replaces its process by children."""
    node: Plug | Fork
    joins: tuple            # (name, branch, branch) per plugged name, sorted
    payload: str | None     # the PLUG event's payload; a fork's, with a %d
                            # for each new channel's id
    children: tuple         # (name suffix, body, held names it inherits)
    released: tuple         # the held names no child inherits


class Invocation(NamedTuple):
    """How a call or use binds its arguments to `proc`'s parameters."""
    node: Call | Use
    proc: ProcDef
    seq_pairs: tuple        # (parameter, argument expression)
    chan_pairs: tuple       # (parameter, argument channel name)
    # Two parameters take one argument name.  Until some end has two
    # names, distinct names bind distinct ends, so this is the only way
    # one end gets two names.
    aliases: bool


def _hand_off_plan(node, held: frozenset, children: list, joins: tuple,
                   payload: str | None) -> HandOff:
    """`children` as (name suffix, body, names it uses, names it binds
    itself): each held name goes to the first child that uses it and does
    not bind it; the rest are released."""
    rest = set(held)
    planned = []
    for suffix, body, uses, own in children:
        inherits = tuple(sorted(uses & rest - own))
        rest.difference_update(inherits)
        planned.append((suffix, body, inherits))
    return HandOff(node, joins, payload, tuple(planned), tuple(sorted(rest)))


def _plug_plan(program: ExecProgram, cmd: Plug, held: frozenset) -> HandOff:
    frees = [program.free_chans(b) for b in cmd.branches]
    users: dict[str, list[int]] = {}
    for i, names in enumerate(frees):
        for name in names - held:
            users.setdefault(name, []).append(i)
    joins = []
    for name in sorted(users):
        if len(users[name]) != 2:
            raise MachineFault(
                "IllegalCommand",
                f"plug channel {name!r} must join exactly two branches")
        joins.append((name, *users[name]))
    return _hand_off_plan(cmd, held, [
        (f"/{i}", body, names, frozenset())
        for i, (body, names) in enumerate(zip(cmd.branches, frees))],
        tuple(joins), ",".join(name for name, _, _ in joins) or None)


def _fork_plan(program: ExecProgram, cmd: Fork, held: frozenset) -> HandOff:
    return _hand_off_plan(cmd, held, [
        (f".{arm.name}", arm.body, program.free_chans(arm.body), {arm.name})
        for arm in cmd.arms], (),
        ",".join(f"{arm.name}#%d" for arm in cmd.arms))


def _invocation(program: ExecProgram, cmd: Call | Use,
                proc: ProcDef | None = None) -> Invocation:
    """A use's plan is for the stored `proc`; a call's names its own."""
    if type(cmd) is Call:
        proc = program.procs.get(cmd.callee)
        if proc is None:
            raise MachineFault("IllegalCommand",
                               f"call to unknown process {cmd.callee!r}")
    if len(cmd.seq_args) != len(proc.seq_params) \
            or len(cmd.chan_args) != len(proc.chan_params):
        target = "call to" if type(cmd) is Call else "use of"
        raise MachineFault("IllegalCommand",
                           f"{target} {proc.name!r} with mismatched "
                           f"argument counts")
    binds = dict(zip(proc.chan_params, cmd.chan_args))
    return Invocation(cmd, proc, tuple(zip(proc.seq_params, cmd.seq_args)),
                      tuple(zip(proc.chan_params, cmd.chan_args)),
                      len(set(binds.values())) < len(binds))


def _arm_table(program: ExecProgram, cmd: HCase) -> tuple[HCase, dict]:
    """The node, and the body of the first arm for each handle."""
    return cmd, {arm.handle: arm.body for arm in reversed(cmd.arms)}


# ---------------------------------------------------------------------------
# the Console service

_IDLE = "idle"
_AWAIT_VAL = "await-val"
_CLOSING = "closing"


class ConsoleEndpoint:
    """State machine for one Console channel's service end.

    Driven by the machine with the messages that arrive in the service
    end's inbox; replies are returned to be sent the other way.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.phase = _IDLE
        self.closed = False
        self._cursor = 0

    def handle(self, msg) -> object | None:
        if self.phase == _AWAIT_VAL:
            if isinstance(msg, ValMsg) and isinstance(msg.value, StringLit):
                self._emit(msg.value.value)
                self.phase = _IDLE
                return None
            raise MachineFault("IllegalCommand",
                               "console expected a string after ConsolePut")
        if self.phase == _CLOSING:
            if isinstance(msg, CloseMsg):
                self.closed = True
                return None
            raise MachineFault("IllegalCommand",
                               "console expected close after ConsoleClose")
        # idle
        if isinstance(msg, HandleMsg):
            if msg.handle == CONSOLE_PUT:
                self.phase = _AWAIT_VAL
                return None
            if msg.handle == CONSOLE_GET:
                return ValMsg(StringLit(self._read_line()))
            if msg.handle == CONSOLE_CLOSE:
                self.phase = _CLOSING
                return None
            raise MachineFault("IllegalCommand",
                               f"console got unknown handle {msg.handle}")
        if isinstance(msg, CloseMsg):
            # Tolerated for unchecked programs that close without the handle.
            self.closed = True
            return None
        raise MachineFault("IllegalCommand",
                           f"console cannot dispatch on {type(msg).__name__}")

    def _emit(self, line: str) -> None:
        self.config.outputs.append(line)
        if self.config.echo is not None:
            print(line, file=self.config.echo, flush=True)

    def _read_line(self) -> str:
        if self.config.scripted:
            if self._cursor >= len(self.config.script):
                raise ScriptExhausted(
                    "console input script exhausted: a ConsoleGet had no "
                    "line to deliver")
            line = self.config.script[self._cursor]
            self._cursor += 1
            return line
        return input()


# ---------------------------------------------------------------------------
# machine state

@dataclass(eq=False, slots=True)
class EndState:
    """One end of a channel, and what a process binds a name to.  `cid`
    and `index` say where it sits now: a |=| that moves it into the fused
    channel re-points them, so every holder follows.  `owner` is the pid
    holding it; the ConsoleEndpoint serving it; None; or, for an end a
    fork created and no split has claimed yet, the carrier channel's
    EndState whose holder will claim it.  `links` holds the ends a fork
    left pending whose claim passes through this one, directly or through
    ends a |=| redirected to it; some may have been claimed since.
    `inbox` holds the messages sent to this end, oldest first."""
    cid: int
    index: int
    owner: object = None
    closed: bool = False
    links: tuple = field(default=(), repr=False)
    inbox: deque = field(default_factory=deque, repr=False)


@dataclass(slots=True)
class ChannelState:
    cid: int
    label: str
    ends: list[EndState]

    @property
    def live(self) -> bool:
        return not (self.ends[0].closed or self.ends[1].closed)


@dataclass(slots=True)
class ProcessInstance:
    pid: int
    name: str
    seq_env: dict[str, Value]
    chan_env: dict[str, EndState]
    frames: list[list]                       # stack of [body, index]

    def next_command(self):
        return self.frames[-1][0][self.frames[-1][1]]


@dataclass(slots=True)
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
        # Processes bind names to the EndStates in these channels' `ends`,
        # which a |=| re-points when it moves them.
        self.channels: dict[int, ChannelState] = {}
        self.services: dict[int, ConsoleEndpoint] = {}
        # The ends the services hold: a |=| moves them into the fused
        # channel, so they stay the same objects for the whole run.
        self._service_ends: list[EndState] = []
        self.steps = 0
        self.trace: list[TraceEvent] = []
        self._next_pid = 0
        self._next_cid = 0
        # For the monitor: the step count at the last passed check, and
        # the channels created and the ends released or redirected since.
        self._checked_at: int | None = None
        self._added: list[int] = []
        self._released: list[EndState] = []
        # False once a call or use bound one end to two names: a later
        # step may then move an end its binder does not own, which the
        # local checks do not model, so every check is the full one.
        self._local_checks = True

    # -- construction -----------------------------------------------------

    def _new_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _new_channel(self, label: str) -> ChannelState:
        cid = self._next_cid
        self._next_cid += 1
        ch = ChannelState(cid, label, [EndState(cid, 0), EndState(cid, 1)])
        self.channels[cid] = ch
        self._added.append(cid)
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
        chan_env: dict[str, EndState] = {}
        proc = ProcessInstance(pid, "run", {}, chan_env, [[run.body, 0]])
        for name in run.in_params:
            ch = self._new_channel(name)
            ch.ends[0].owner = self.services[ch.cid] = \
                ConsoleEndpoint(self.config)
            self._service_ends.append(ch.ends[0])
            ch.ends[1].owner = pid
            chan_env[name] = ch.ends[1]
        self.processes[pid] = proc
        self._drain_services()
        return self

    # -- scheduling --------------------------------------------------------

    def _binding(self, p: ProcessInstance, name: str | None) -> EndState:
        if name is None or name not in p.chan_env:
            raise MachineFault("IllegalCommand",
                               f"process {p.pid} does not hold channel "
                               f"{name!r}")
        e = p.chan_env[name]
        if e.cid not in self.channels:
            raise MachineFault("IllegalCommand",
                               f"channel {name!r} is gone")
        return e

    def _incoming(self, p: ProcessInstance, name: str) -> deque:
        return self._binding(p, name).inbox

    def _outgoing(self, p: ProcessInstance, name: str) -> deque:
        e = self._binding(p, name)
        return self.channels[e.cid].ends[1 - e.index].inbox

    def enabled(self, p: ProcessInstance) -> bool:
        body, index = p.frames[-1]          # p.next_command(), inlined
        cmd = body[index]
        kind = type(cmd)
        if kind not in _WAITING:
            return True
        try:
            if kind is Race:
                return any(self._race_ready(p, cmd))
            return bool(self._incoming(p, cmd.chan))
        except MachineFault:
            # Desynced binding (unchecked programs only): report it at
            # execution time with a precise message.
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
        kind = type(cmd)
        if kind not in _WAITING:
            return []
        if kind is Race:
            return [p.chan_env[a.chan].cid for a in cmd.arms]
        return [p.chan_env[cmd.chan].cid]

    def pick(self) -> ProcessInstance | None:
        # Pids only grow and processes enter the table when created, so
        # its order is pid order.
        for p in self.processes.values():
            if self.enabled(p):
                return p
        return None

    # -- running -----------------------------------------------------------

    def step(self, p: ProcessInstance) -> TraceEvent:
        body, index = p.frames[-1]          # p.next_command(), inlined
        cmd = body[index]
        execute = _HANDLERS.get(type(cmd))
        if execute is None:
            raise MachineFault("IllegalCommand",
                               f"cannot execute {type(cmd).__name__}")
        ev = execute(self, p, cmd)
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
        """Follow a pending end's links to the pid or service that will
        claim it.  An acyclic chain visits each EndState at most once, so
        a longer one is a cycle (faulty unchecked programs only)."""
        hops = 0
        while isinstance(owner, EndState):
            owner = owner.owner
            hops += 1
            if hops > 2 * self._next_cid:
                return None
        return owner

    def check_topology(self, cids: list[int] | None = None) -> list[int]:
        """Union-find acyclicity over live channels, or over the live ones
        among `cids`; returns the channel ids that closed a cycle (empty
        when those channels form a forest)."""
        parent: dict[object, object] = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        bad: list[int] = []
        for cid in sorted(self.channels) if cids is None else cids:
            ch = self.channels.get(cid)
            if ch is None or not ch.live:
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
        """Raise the fault `check_invariants` would raise on this state.

        Right after one step of a machine whose last check passed, only
        that step's record is checked.  The network was then a forest with
        every live end owned.  A step that changes ownership replaces one
        process or channel by a small tree: plug and fork hand each of the
        process's channels to one child, so those lead into disjoint
        subtrees, and |=| joins its two peers by one channel.  A new cycle
        must therefore close among the channels the step created.  An end
        loses its owner only through an end the step released or
        redirected (a fork whose carrier's far end has no owner releases
        the carrier's last end), and such ends keep their pending ends in
        `links`.  When a local check flags anything, the full check
        decides and builds the fault.
        """
        recorded = self._added or self._released
        if not (self._local_checks and self._checked_at == self.steps - 1
                and (not recorded or self._step_checks_pass())):
            self.check_invariants()
        self._checked_at = self.steps
        if recorded:
            self._added.clear()
            self._released.clear()

    def _step_checks_pass(self) -> bool:
        resolve = self.resolve_owner
        for e in self._released:
            if e.links and any(resolve(pend) is None for pend in e.links):
                return False
        if len(self._added) > 2:
            return not self.check_topology(self._added)
        # One or two new channels close a cycle only as a loop, or as two
        # channels between the same pair of owners.
        edges = []
        for cid in self._added:
            ch = self.channels.get(cid)
            if ch is None or not ch.live:
                continue
            a = resolve(ch.ends[0].owner)
            b = resolve(ch.ends[1].owner)
            if a is None or b is None:
                continue
            if a == b or (a, b) in edges or (b, a) in edges:
                return False
            edges.append((a, b))
        return True

    def check_invariants(self) -> None:
        """The full check, and the tests' reference: acyclicity over every
        live channel, then an owner for every end of one."""
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

    def _exec_put(self, p: ProcessInstance, cmd: PutVal) -> TraceEvent:
        value = self._eval(p, cmd.expr)
        self._outgoing(p, cmd.chan).append(ValMsg(value))
        ev = self._event(p, "PUT", cmd.chan, render(value))
        self._advance(p)
        return ev

    def _exec_get(self, p: ProcessInstance, cmd: GetVal) -> TraceEvent:
        msg = self._pop(p, cmd.chan, ValMsg, "get")
        p.seq_env[cmd.binder] = msg.value
        ev = self._event(p, "GET", cmd.chan, render(msg.value))
        self._advance(p)
        return ev

    def _exec_hput(self, p: ProcessInstance, cmd: HPut) -> TraceEvent:
        self._outgoing(p, cmd.chan).append(HandleMsg(cmd.handle))
        ev = self._event(p, "HPUT", cmd.chan, cmd.handle)
        self._advance(p)
        return ev

    def _exec_hcase(self, p: ProcessInstance, cmd: HCase) -> TraceEvent:
        msg = self._pop(p, cmd.chan, HandleMsg, "hcase")
        table = (self.program.plans.get(id(cmd))
                 or self._new_plan(id(cmd), _arm_table, cmd))
        body = table[1].get(msg.handle)
        if body is None:
            raise MachineFault("IllegalCommand",
                               f"hcase on {cmd.chan!r} has no arm for "
                               f"handle {msg.handle}")
        ev = self._event(p, "HCASE", cmd.chan, msg.handle)
        self._advance(p, push=body)
        return ev

    def _exec_close(self, p: ProcessInstance, cmd: Close) -> TraceEvent:
        ev = self._event(p, "CLOSE", cmd.chan)
        self._close_end(p, cmd.chan)
        self._advance(p)
        return ev

    def _exec_halt(self, p: ProcessInstance, cmd: Halt) -> TraceEvent:
        ev = self._event(p, "HALT", cmd.chan)
        self._close_end(p, cmd.chan)
        self._finish(p)
        return ev

    def _exec_race(self, p: ProcessInstance, cmd: Race) -> TraceEvent:
        arm = resolve_race(self._race_ready(p, cmd), self.rng)
        ev = self._event(p, "RACE", arm.chan)
        self._advance(p, push=arm.body)
        return ev

    def _exec_neg(self, p: ProcessInstance, cmd: NegIntro) -> TraceEvent:
        e = self._binding(p, cmd.chan)
        del p.chan_env[cmd.chan]
        p.chan_env[cmd.fresh] = e
        self._advance(p)
        return self._event(p, "NEG", cmd.fresh, None, cid=e.cid)

    # -- helpers -------------------------------------------------------------

    def _event(self, p: ProcessInstance, kind: str, chan: str | None,
               payload: str | None = None, cid: int | None = None
               ) -> TraceEvent:
        if chan is not None and cid is None:
            cid = p.chan_env[chan].cid if chan in p.chan_env else -1
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
        for e in p.chan_env.values():
            if e.owner == p.pid:
                self._release(e)
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
        e = self._binding(p, chan)
        del p.chan_env[chan]
        ch = self.channels[e.cid]
        ch.ends[1 - e.index].inbox.append(CloseMsg())
        e.closed = True
        self._reap(ch)

    def _release(self, e: EndState) -> None:
        """Close and disown one end, if its channel is still there."""
        ch = self.channels.get(e.cid)
        if ch is not None:
            e.owner = None
            e.closed = True
            self._released.append(e)
            self._reap(ch)

    def _reap(self, ch: ChannelState) -> None:
        if ch.ends[0].closed and ch.ends[1].closed:
            self.channels.pop(ch.cid, None)
            self.services.pop(ch.cid, None)
            # pending ends that would be claimed through these now resolve
            # to no one
            ch.ends[0].owner = ch.ends[1].owner = None
            self._released += ch.ends

    def _eval(self, p: ProcessInstance, e: Expr) -> Value:
        if isinstance(e, (IntLit, CharLit, StringLit, BoolLit)):
            return e
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

    def _new_plan(self, key, build, *args):
        """Memoise `build(program, *args)` under `key`: a lookup's miss."""
        plan = self.program.plans[key] = build(self.program, *args)
        return plan

    def _hand_off(self, p: ProcessInstance, plan: HandOff,
                  envs: list[dict]) -> None:
        """Replace `p` by `plan`'s children, each binding its dict of
        `envs` and the ends of `p` it inherits; release the rest."""
        del self.processes[p.pid]
        held = p.chan_env
        for (suffix, body, inherits), env in zip(plan.children, envs):
            for name in inherits:
                env[name] = held[name]
            pid = self._new_pid()
            self.processes[pid] = ProcessInstance(
                pid, p.name + suffix, dict(p.seq_env), env, [[body, 0]])
            for e in env.values():
                e.owner = pid
        for name in plan.released:
            self._release(held[name])

    def _exec_fork(self, p: ProcessInstance, cmd: Fork) -> TraceEvent:
        e = self._binding(p, cmd.chan)
        del p.chan_env[cmd.chan]
        key = (id(cmd), frozenset(p.chan_env))
        plan = (self.program.plans.get(key)
                or self._new_plan(key, _fork_plan, cmd, key[1]))
        ch = self.channels[e.cid]
        # The forker's children take end 0 of each new channel.  End 1
        # waits for the peer's split; until then it is claimed through
        # the carrier's far end, whose holder may change meanwhile.
        new = [self._new_channel(arm.name) for arm in cmd.arms]
        far = ch.ends[1 - e.index]
        pending = tuple(nch.ends[1] for nch in new)
        for pe in pending:
            pe.owner = far
        far.links += pending
        far.inbox.append(RewireMsg(new[0].cid, pending))
        ev = self._event(p, "FORK", cmd.chan, plan.payload % tuple(
            nch.cid for nch in new), cid=e.cid)
        self._release(e)
        self._hand_off(p, plan, [{arm.name: nch.ends[0]}
                                 for arm, nch in zip(cmd.arms, new)])
        return ev

    def _exec_split(self, p: ProcessInstance, cmd: Split) -> TraceEvent:
        msg = self._pop(p, cmd.chan, RewireMsg, "split")
        self._release(p.chan_env.pop(cmd.chan))
        for name, e in zip((cmd.left, cmd.right), msg.ends):
            e.owner = p.pid
            p.chan_env[name] = e
        self._advance(p)
        return self._event(p, "SPLIT", cmd.left, f"{cmd.right}",
                           cid=msg.cid_left)

    def _exec_plug(self, p: ProcessInstance, cmd: Plug) -> TraceEvent:
        key = (id(cmd), frozenset(p.chan_env))
        plan = (self.program.plans.get(key)
                or self._new_plan(key, _plug_plan, cmd, key[1]))
        envs: list[dict] = [{} for _ in plan.children]
        for name, i, j in plan.joins:
            envs[i][name], envs[j][name] = self._new_channel(name).ends
        ev = self._event(p, "PLUG", None, plan.payload)
        self._hand_off(p, plan, envs)
        return ev

    def _exec_invoke(self, p: ProcessInstance, cmd: Call | Use
                     ) -> TraceEvent:
        """Replace `p`'s continuation with a called or stored process."""
        if type(cmd) is Call:
            plan = (self.program.plans.get(id(cmd))
                    or self._new_plan(id(cmd), _invocation, cmd))
            kind, name, seq_env = "CALL", plan.proc.name, {}
        else:
            value = self._eval(p, cmd.stored)
            if not isinstance(value, StoredProc):
                raise MachineFault("IllegalCommand",
                                   f"use of a non-process value "
                                   f"{render(value)}")
            d = value.proc
            key = (id(cmd), id(d))
            plan = (self.program.plans.get(key)
                    or self._new_plan(key, _invocation, cmd, d))
            kind, name, seq_env = "USE", f"use:{d.name}", dict(value.env)
        for param, e in plan.seq_pairs:
            seq_env[param] = self._eval(p, e)
        held = p.chan_env
        chan_env = {}
        for param, arg in plan.chan_pairs:
            e = held.get(arg)
            if e is None:
                raise MachineFault("IllegalCommand",
                                   f"{kind.lower()} passes unknown channel "
                                   f"{arg!r}")
            chan_env[param] = e
        if plan.aliases:
            self._local_checks = False
        p.name = name
        p.seq_env = seq_env
        p.chan_env = chan_env
        p.frames = [[plan.proc.body, 0]]
        return self._event(p, kind, None, plan.proc.name)

    def _exec_link(self, p: ProcessInstance, cmd: Link) -> TraceEvent:
        left, right = self._binding(p, cmd.left), self._binding(p, cmd.right)
        lch, rch = self.channels[left.cid], self.channels[right.cid]
        fused = self._new_channel(f"{lch.label}|=|{rch.label}")
        fused.ends[:] = lch.ends[1 - left.index], rch.ends[1 - right.index]
        # The peers' ends move into the fused channel, and whoever holds or
        # will claim them follows.  Right first: an end that is both
        # (a |=| a) stays at index 0.
        for index in (1, 0):
            fused.ends[index].cid, fused.ends[index].index = fused.cid, index
        # A pending end this process would have claimed goes to the
        # opposite peer, which now receives what was sent this way.
        for moved, to in ((left, fused.ends[1]), (right, fused.ends[0])):
            moved.owner = to
            to.links += moved.links
            self._released.append(moved)
        # Each peer keeps what this process already sent it, then receives
        # what the other peer had in flight toward this process.
        fused.ends[1].inbox.extend(left.inbox)
        fused.ends[0].inbox.extend(right.inbox)
        for old in (lch, rch):
            if old.cid in self.services:
                self.services[fused.cid] = self.services.pop(old.cid)
            self.channels.pop(old.cid, None)
        ev = self._event(p, "LINK", cmd.left,
                         f"{cmd.right}->#{fused.cid}", cid=lch.cid)
        p.chan_env.clear()
        del self.processes[p.pid]
        self._reap(fused)
        return ev

    # -- services ------------------------------------------------------------

    def _drain_services(self) -> None:
        # Most steps send the services nothing.
        for e in self._service_ends:
            if e.inbox:
                break
        else:
            return
        # A snapshot in cid order (the table's order): _reap pops from it.
        for cid in tuple(self.services):
            endpoint = self.services.get(cid)
            ch = self.channels.get(cid)
            if endpoint is None or ch is None:
                continue
            service, peer = (ch.ends if ch.ends[0].owner is endpoint
                             else ch.ends[::-1])
            while service.inbox:
                reply = endpoint.handle(service.inbox.popleft())
                if reply is not None:
                    peer.inbox.append(reply)
                if endpoint.closed:
                    service.closed = True
                    self._reap(ch)
                    break


def boot(program: ExecProgram, seed: int = 0,
         services: ServiceConfig | None = None,
         trace_hook: Callable[[TraceEvent], None] | None = None) -> Machine:
    """Create and boot a machine: one process for `run`, one service
    channel per service parameter in its context, RNG seeded."""
    return Machine(program, seed, services, trace_hook).boot()


# How `Machine.step` runs each command class.  `OnDo` is absent: `prepare`
# desugars it away, so a raw one is an illegal command.
_HANDLERS = {
    PutVal: Machine._exec_put,
    GetVal: Machine._exec_get,
    HPut: Machine._exec_hput,
    HCase: Machine._exec_hcase,
    Close: Machine._exec_close,
    Halt: Machine._exec_halt,
    Fork: Machine._exec_fork,
    Split: Machine._exec_split,
    Plug: Machine._exec_plug,
    Race: Machine._exec_race,
    Call: Machine._exec_invoke,
    Use: Machine._exec_invoke,
    Link: Machine._exec_link,
    NegIntro: Machine._exec_neg,
}
