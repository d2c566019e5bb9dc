"""Deterministic cooperative machine for checked (or deliberately
unchecked) programs.

A process is one continuation, a tuple of commands and the index of the
next, over channels, each a pair of ends that name each other as peers;
each end holds a FIFO inbox of the messages sent to it.  Values are the
program's own literal nodes and stored processes.  A message is what it
carries, so its kind is its type: a value, a handle's name (a `str`, which
no value is), the one `CloseMsg` or a fork's `RewireMsg`.  One command of
one process runs per step, through a table of handlers keyed by command
class; among the processes whose next command can make progress, the
smallest pid goes first.  A step runs the Console service drain only when
a service end holds mail.  Races are the only consumers of the seeded RNG,
so a (program, seed, input script) triple fixes the whole trace.

`run_to_completion` runs one loop iteration per step.  It writes out in
line what `assert_invariants`, `pick` and `step` do, and calls out only for
work that can cost: the monitor after a step that recorded a change (after
every step, unchecked), `enabled` for a command that waits, the handler and
the drain.  Those three methods keep their behaviour as the stepwise API
and the loop's reference.  A handler returns its step as a plain `(pid,
kind, chan, cid, payload)` row, whose five fields the machine adds to one
flat list; a put's or get's payload is the value itself, rendered only
when an event is built.  `Machine.trace` is a read-only view that builds
each `TraceEvent` when it is read, and a step builds one only for a
`trace_hook`.  A channel's two ends stop naming each other as peers when
it is reaped, so a run leaves no reference cycles for the collector.

A step applies a plan of how a plug, fork, call or use wires names; a
checked machine memoises a plug's, fork's or call's per node in its own
`plans`.  An hcase takes its first arm for the handle it received; an
hcase or race continues with its arm's body and then the commands after
it.  A topology monitor checks before every step that the graph of
processes and live channels is a forest (`cycle_edges`) and that every end
of a live channel has an owner.  A machine booted `checked` trusts the
checker.  Its monitor scans the whole network at the first check and at
any check not made right after one step; otherwise it checks only what
that step recorded.  A plug's or fork's plan says once whether the
channels it adds can close a cycle (`HandOff.forest`), so only a |=| and a
plug whose plan is not a forest record their new channels, checked for
cycles among themselves (one or two by comparing their owners).  An end
that loses its owner is recorded only while fork messages in its inbox
carry ends pending through it, checked for an owner.  A step that
recorded nothing passes at once.  Whatever a local check flags goes to
the full scan, which raises the fault.  An unchecked machine runs the
references: every plan built afresh, every check full.
"""

from __future__ import annotations

import random
from collections import deque, namedtuple
from collections.abc import Sequence
from enum import Enum
from typing import Callable, NamedTuple

from .elaborate import ExecProgram, cycle_edges, share_out
from .model import (
    BoolLit, Call, CharLit, Close, Expr, Field, Fork, GetVal, Halt, HCase,
    HPut, IntLit, Link, NegIntro, Plug, ProcDef, PutVal, Race, Split,
    StoreOf, StringLit, Use, VarRef, record,
)
from .services import (
    CONSOLE_CLOSE, CONSOLE_GET, CONSOLE_PUT, ScriptExhausted, ServiceConfig,
)

DEFAULT_MAX_STEPS = 100_000

# The commands that wait for a message; any other command can always run.
_WAITING = frozenset({GetVal, HCase, Split, Race})


# ---------------------------------------------------------------------------
# values and messages

@record
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


@record
class CloseMsg:
    pass


# A close message carries nothing, so every close sends this one.
_CLOSE = CloseMsg()


@record
class RewireMsg:
    """A fork's message to the splitter: the ends it will claim, and the
    left channel's id at the fork, which its SPLIT event prints."""
    cid_left: int
    ends: tuple[EndState, EndState]


def _kind(msg) -> str:
    """A message's kind as the fault texts name it."""
    if isinstance(msg, Value):
        return "ValMsg"
    return "HandleMsg" if type(msg) is str else type(msg).__name__


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
# per-node plans; a checked machine keeps a plug's, fork's or call's in
# `Machine.plans` from the node's first step.  A build that faults stores
# nothing, so every later step checks again.

# How a plug or fork replaces its process by children:
#   joins     (name, branch, branch) per plugged name, sorted
#   payload   the PLUG event's payload; a fork's, with a %d for each new
#             channel's id
#   children  (name suffix, body, held names it inherits) per child
#   released  the held names no child inherits
#   forest    whether the new channels close no cycle, so a checked step
#             need not record them for the monitor
# A plain namedtuple: `typing.NamedTuple` spends about 12 Python calls per
# field at import (`test_import_stays_within_its_call_budget`).
HandOff = namedtuple("HandOff", "joins payload children released forest")


class Invocation(NamedTuple):
    """How a call or use binds its arguments to `proc`'s parameters."""
    proc: ProcDef
    seq_pairs: tuple        # (parameter, argument expression)
    chan_pairs: tuple       # (parameter, argument channel name)


def _hand_off_plan(held: dict, children: list, users: dict, joins: tuple,
                   payload: str | None, forest: bool) -> HandOff:
    """`children` as (name suffix, body): each held name goes to the first
    child that uses it, by `users` (`share_out`); the rest are released."""
    inherits: list[list[str]] = [[] for _ in children]
    for name in sorted(held.keys() & users.keys()):
        inherits[users[name][0]].append(name)
    return HandOff(joins, payload, tuple(
        (*child, tuple(names)) for child, names in zip(children, inherits)),
        tuple(sorted(held.keys() - users.keys())), forest)


def _plug_plan(program: ExecProgram, cmd: Plug, held: dict) -> HandOff:
    users = share_out(map(program.free_chans, cmd.branches))
    joins = tuple((name, *users[name])
                  for name in sorted(users.keys() - held.keys()))
    for name, *where in joins:
        if len(where) != 2:
            raise MachineFault("IllegalCommand", f"plug channel {name!r} "
                               f"must join exactly two branches")
    # The joined channels link fresh children only, so they close a cycle
    # exactly when they do among themselves.
    return _hand_off_plan(
        held, [(f"/{i}", body) for i, body in enumerate(cmd.branches)],
        users, joins, ",".join(join[0] for join in joins) or None,
        not cycle_edges(joins))


def _fork_plan(program: ExecProgram, cmd: Fork, held: dict) -> HandOff:
    # A fork's two channels join its two fresh children to the carrier's
    # far holder, which on a forest is neither the forker nor a child.
    return _hand_off_plan(
        held, [(f".{arm.label}", arm.body) for arm in cmd.arms],
        share_out(program.free_chans(arm.body) - {arm.label}
                  for arm in cmd.arms), (),
        ",".join(f"{arm.label}#%d" for arm in cmd.arms), True)


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
    return Invocation(proc, tuple(zip(proc.seq_params, cmd.seq_args)),
                      tuple(zip(proc.chan_params, cmd.chan_args)))


# ---------------------------------------------------------------------------
# the Console service

class ConsoleEndpoint:
    """State machine for one Console channel's service end.

    Driven by the machine with the messages that arrive in the service
    end's inbox (a handle's name, a `StringLit`, the close); a reply, the
    `StringLit` a ConsoleGet reads, is returned to be sent the other way.
    `phase` is the handle whose follow-up message is due (CONSOLE_PUT's
    string or CONSOLE_CLOSE's close), or None.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.phase = None
        self.closed = False
        self._cursor = 0

    def handle(self, msg) -> StringLit | None:
        if self.phase == CONSOLE_PUT:
            if type(msg) is StringLit:
                self._emit(msg.value)
                self.phase = None
                return None
            raise MachineFault("IllegalCommand",
                               "console expected a string after ConsolePut")
        if self.phase == CONSOLE_CLOSE:
            if type(msg) is CloseMsg:
                self.closed = True
                return None
            raise MachineFault("IllegalCommand",
                               "console expected close after ConsoleClose")
        if type(msg) is str:
            if msg == CONSOLE_GET:
                return StringLit(self._read_line())
            if msg in (CONSOLE_PUT, CONSOLE_CLOSE):
                self.phase = msg
                return None
            raise MachineFault("IllegalCommand",
                               f"console got unknown handle {msg}")
        if type(msg) is CloseMsg:
            # Tolerated for unchecked programs that close without the handle.
            self.closed = True
            return None
        raise MachineFault("IllegalCommand",
                           f"console cannot dispatch on {_kind(msg)}")

    def _emit(self, line: str) -> None:
        self.config.outputs.append(line)
        if self.config.echo is not None:
            print(line, file=self.config.echo, flush=True)

    def _read_line(self) -> str:
        if self.config.script is not None:
            if self._cursor >= len(self.config.script):
                raise ScriptExhausted(
                    "console input script exhausted: a ConsoleGet had no "
                    "line to deliver")
            line = self.config.script[self._cursor]
            self._cursor += 1
            return line
        try:
            return input()
        except EOFError:
            raise ScriptExhausted("console input ended: a ConsoleGet had no "
                                  "line to deliver") from None


# ---------------------------------------------------------------------------
# machine state

@record(eq=False)
class EndState:
    """One end of a channel, and what a process binds a name to.  `cid`
    and `label` are the id and label of the channel it sits in now, and
    `peer` the channel's other end, to whose inbox it sends: a |=| that
    moves it into the fused channel re-points all three, so every holder
    follows; reaping the channel sets `peer` to None.  The channel is live
    while neither end is closed.  `owner` is the pid holding it; the
    ConsoleEndpoint serving it; None; or, for an end a fork created and no
    split has claimed yet, the carrier channel's EndState whose holder
    will claim it.  `inbox` holds the messages sent to this end, oldest
    first; a fork's `RewireMsg` there carries the ends left pending
    through it."""
    cid: int
    label: str
    owner: object = None
    closed: bool = False
    peer: EndState | None = Field(None, hidden=True)
    inbox: deque = Field(factory=deque, hidden=True)


@record
class ProcessInstance:
    """A process: its bindings and its continuation, the commands
    `body[at:]`.  `at` indexes the next command, so a process whose body
    has run out has finished and left the table.  An hcase or race
    continues with its arm's body and then the commands after it; an arm
    body is never empty, because the parser's `_block` needs an item."""
    pid: int
    name: str
    seq_env: dict[str, Value]
    chan_env: dict[str, EndState]
    body: tuple
    at: int


@record
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


def _event(step: int, pid: int, kind: str, chan: str | None,
           cid: int | None, payload) -> TraceEvent:
    """Step `step`'s event from its row, whose payload may be a value."""
    if payload is not None and type(payload) is not str:
        payload = render(payload)
    return TraceEvent(step, pid, kind, chan, cid, payload)


class Trace(Sequence):
    """A read-only view of a machine's steps, oldest first.  The machine
    keeps each step's `(pid, kind, chan, cid, payload)` row as five
    consecutive items of one flat list, step `i`'s at `5 * i`, and builds a
    `TraceEvent` only when one is read."""

    def __init__(self, rows: list):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows) // 5

    def __getitem__(self, index):
        rows = self._rows
        steps = range(len(rows) // 5)[index]
        if type(steps) is range:
            return [_event(step, *rows[5 * step:5 * step + 5])
                    for step in steps]
        return _event(steps, *rows[5 * steps:5 * steps + 5])

    def __iter__(self):
        fields = iter(self._rows)
        for step, row in enumerate(zip(*[fields] * 5)):
            yield _event(step, *row)


class OutcomeKind(Enum):
    DONE = "done"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


@record
class Outcome:
    kind: OutcomeKind
    steps: int
    trace: Trace
    machine: "Machine"
    stuck: dict[int, list[int]] = Field(factory=dict)

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
                 trace_hook: Callable[[TraceEvent], None] | None = None,
                 checked: bool = True):
        self.program = program
        self.checked = checked
        # Plug, fork and call plans by id(node); `program` holds every node
        # a key names, so no keyed id is reused.
        self.plans: dict = {}
        self.rng = random.Random(seed)
        self.config = services if services is not None else ServiceConfig()
        self.trace_hook = trace_hook
        self.processes: dict[int, ProcessInstance] = {}
        # Each channel's first end by its id: end 0 of a new channel, or
        # the left peer a |=| moved in.  Processes bind names to ends, which
        # a |=| re-points when it moves them.
        self.channels: dict[int, EndState] = {}
        # The end each service holds, in boot order; its `owner` is the
        # ConsoleEndpoint, which nothing rewrites while the channel lives.
        self.services: list[EndState] = []
        self.steps = 0
        # The handlers' rows, five fields a step (see `Trace`); `trace`
        # reads them as events.
        self._rows: list = []
        self.trace = Trace(self._rows)
        self._next_pid = 0
        self._next_cid = 0
        # For the monitor: the step count at the last passed check, and
        # what the steps since recorded: the channels a |=| or a plug whose
        # plan is not a forest created, the ends a |=| redirected, and the
        # ends released while fork messages in their inbox pended on them.
        self._checked_at: int | None = None
        self._added: list[int] = []
        self._released: list[EndState] = []

    # -- construction -----------------------------------------------------

    def _new_channel(self, label: str) -> tuple[EndState, EndState]:
        cid = self._next_cid
        self._next_cid += 1
        a = self.channels[cid] = EndState(cid, label, None, False, None,
                                          deque())
        b = a.peer = EndState(cid, label, None, False, a, deque())
        return a, b

    def boot(self) -> "Machine":
        run = self.program.procs.get("run")
        if run is None:
            raise BootError("MissingRun: the program defines no process "
                            "named 'run'")
        if run.seq_params:
            raise BootError("run cannot take sequential parameters")
        if run.out_params:
            raise BootError("run cannot take output channels")
        pid = self._next_pid
        self._next_pid += 1
        chan_env: dict[str, EndState] = {}
        proc = ProcessInstance(pid, "run", {}, chan_env, run.body, 0)
        for name in run.in_params:
            service, e = self._new_channel(name)
            service.owner = ConsoleEndpoint(self.config)
            self.services.append(service)
            e.owner = pid
            chan_env[name] = e
        self.processes[pid] = proc
        return self

    # -- scheduling --------------------------------------------------------

    def _binding(self, p: ProcessInstance, name: str | None) -> EndState:
        """The live end `p` binds to `name`, or the fault of an unchecked
        program that holds none.  The hot paths make the same test inline
        and call this only to raise the fault."""
        if name is None or name not in p.chan_env:
            raise MachineFault("IllegalCommand",
                               f"process {p.pid} does not hold channel "
                               f"{name!r}")
        e = p.chan_env[name]
        if e.cid not in self.channels:
            raise MachineFault("IllegalCommand",
                               f"channel {name!r} is gone")
        return e

    def enabled(self, p: ProcessInstance) -> bool:
        cmd = p.body[p.at]
        kind = type(cmd)
        if kind not in _WAITING:
            return True
        # A desynced binding (unchecked programs only) counts as enabled:
        # the command then faults with a precise message.
        if kind is Race:
            try:
                return any(self._race_ready(p, cmd))
            except MachineFault:
                return True
        e = p.chan_env.get(cmd.chan)        # self._binding(...), inlined
        return e is None or e.cid not in self.channels or bool(e.inbox)

    def _race_ready(self, p: ProcessInstance, cmd: Race) -> list:
        ready = []
        for arm in cmd.arms:
            e = p.chan_env.get(arm.label)
            if e is None or e.cid not in self.channels:
                self._binding(p, arm.label)
            q = e.inbox
            if q and isinstance(q[0], Value):
                ready.append(arm)
        return ready

    def waiting_on(self, p: ProcessInstance) -> list[int]:
        cmd = p.body[p.at]
        kind = type(cmd)
        if kind not in _WAITING:
            return []
        if kind is Race:
            return [p.chan_env[a.label].cid for a in cmd.arms]
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
        cmd = p.body[p.at]
        row = _HANDLERS.get(type(cmd), _cannot_execute)(self, p, cmd)
        self._rows += row
        self.steps += 1
        ev = _event(self.steps - 1, *row)
        if self.trace_hook is not None:
            self.trace_hook(ev)
        # Most steps send the services nothing.
        for e in self.services:
            if e.inbox:
                self._drain_services()
                break
        return ev

    def run_to_completion(self, max_steps: int = DEFAULT_MAX_STEPS) -> Outcome:
        """`assert_invariants`, the stop rules, `pick` and `step`, written
        out in that order once per step; those stay as the stepwise API
        and this loop's reference."""
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        processes, services = self.processes, self.services
        added, released = self._added, self._released
        rows, hook, checked = self._rows, self.trace_hook, self.checked
        self.assert_invariants()
        while True:
            if not processes:
                if self.channels:
                    return Outcome(OutcomeKind.STUCK, self.steps, self.trace,
                                   self, {})
                return Outcome(OutcomeKind.DONE, self.steps, self.trace, self)
            # pick(): the least pid whose next command can run.
            for p in processes.values():
                cmd = p.body[p.at]
                kind = type(cmd)
                if kind not in _WAITING or self.enabled(p):
                    break
            else:
                stuck = {pid: self.waiting_on(q)
                         for pid, q in sorted(processes.items())}
                return Outcome(OutcomeKind.STUCK, self.steps, self.trace,
                               self, stuck)
            if self.steps >= max_steps:
                return Outcome(OutcomeKind.STEP_LIMIT, self.steps,
                               self.trace, self)
            # step(p)
            row = _HANDLERS.get(kind, _cannot_execute)(self, p, cmd)
            rows += row
            self.steps += 1
            if hook is not None:
                hook(_event(self.steps - 1, *row))
            for e in services:
                if e.inbox:
                    self._drain_services()
                    break
            # assert_invariants(): this check comes right after one step,
            # so a checked step that recorded nothing passes at once.
            if checked and not added and not released:
                self._checked_at = self.steps
            else:
                self.assert_invariants()

    # -- invariants ---------------------------------------------------------

    def resolve_owner(self, owner):
        """Follow a pending end's owners to the pid or service that will
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
        """The ids of the live channels, all of them or the live ones among
        `cids`, that close a cycle between their owners (`cycle_edges`);
        empty when those channels form a forest."""
        resolve = self.resolve_owner
        edges = []
        for cid in sorted(self.channels) if cids is None else cids:
            e = self.channels.get(cid)
            if e is None or e.closed or e.peer.closed:
                continue
            a, b = resolve(e.owner), resolve(e.peer.owner)
            if a is not None and b is not None:
                edges.append((cid, a, b))
        return cycle_edges(edges)

    def assert_invariants(self) -> None:
        """Raise the fault `check_invariants` would raise on this state.

        Right after one step of a checked machine whose last check passed,
        only that step's record is checked.  The network was then a forest
        with every live end owned, and the checker promises that every end a
        step moves belongs to the stepping process and every end a live
        process owns is bound to one of its names.  A step that changes
        ownership replaces one process or channel by a small tree: plug and
        fork hand each of the process's channels to one child, so those lead
        into disjoint subtrees, and |=| joins its two peers by one channel.  A
        new cycle must therefore close among the channels the step created.
        A plug's new channels join fresh children only, so they close one
        exactly when they do among themselves, which its plan works out once
        (`HandOff.forest`); the step records them only then.  A fork's two
        join its two fresh children to the holder its carrier's far end
        resolves to, through any ends still pending: on a forest that is
        neither the forker (the carrier would have been a loop) nor a
        child, so they never close one and the step records none.  A |=|
        records its channel.
        An end loses its owner only through an end the step released or
        redirected (a fork whose carrier's far end has no owner releases the
        carrier's last end), and only the fork messages in such an end's
        inbox carry ends pending through it, so a released end is recorded
        only while it holds one; a |=| records the ends it redirects.
        When a local check flags anything, the full check decides and builds
        the fault.  Most steps record nothing, and then the check returns at
        once.  An unchecked machine makes the full check every time.
        """
        local = self.checked and self._checked_at == self.steps - 1
        if local and not self._added and not self._released:
            self._checked_at = self.steps
            return
        if not (local and self._step_checks_pass()):
            self.check_invariants()
        self._checked_at = self.steps
        self._added.clear()
        self._released.clear()

    def _step_checks_pass(self) -> bool:
        resolve = self.resolve_owner
        for e in self._released:
            for msg in e.inbox:
                if type(msg) is RewireMsg and None in map(resolve, msg.ends):
                    return False
        if len(self._added) > 2:
            return not self.check_topology(self._added)
        # One or two new channels close a cycle only as a loop, or as two
        # channels between the same pair of owners.
        edges = []
        for cid in self._added:
            e = self.channels.get(cid)
            if e is None or e.closed or e.peer.closed:
                continue
            a = resolve(e.owner)
            b = resolve(e.peer.owner)
            if a is None or b is None:
                continue
            if a == b or (a, b) in edges or (b, a) in edges:
                return False
            edges.append((a, b))
        return True

    def check_invariants(self) -> None:
        """The full check, and the tests' reference: acyclicity over every
        live channel, then an owner for every end of one.  A pid that has
        ended owns nothing."""
        bad = self.check_topology()
        if bad:
            raise MachineFault(
                "CycleFound",
                f"process network contains a cycle through channel(s) "
                f"{', '.join(str(c) for c in bad)}")
        for cid, e in self.channels.items():
            if e.closed or e.peer.closed:
                continue
            for end in (e, e.peer):
                owner = self.resolve_owner(end.owner)
                if owner is None or (
                        type(owner) is int and owner not in self.processes):
                    raise MachineFault(
                        "Conservation",
                        f"live channel {e.label}#{cid} has an unowned end")

    # -- command execution ---------------------------------------------------

    # Each handler returns its step's trace row, `(pid, kind, chan, cid,
    # payload)`, built before `_advance` or `_finish` can end the process,
    # from the end it bound.  A put's or get's payload is the value, which
    # `_event` renders.  The hot ones bind inline and call `_binding`
    # only to raise its fault (unchecked programs only).

    def _exec_put(self, p: ProcessInstance, cmd: PutVal) -> tuple:
        value = self._eval(p, cmd.expr)
        e = p.chan_env.get(cmd.chan)
        if e is None or e.cid not in self.channels:
            self._binding(p, cmd.chan)
        e.peer.inbox.append(value)
        row = (p.pid, "PUT", cmd.chan, e.cid, value)
        self._advance(p)
        return row

    def _exec_get(self, p: ProcessInstance, cmd: GetVal) -> tuple:
        e, value = self._pop(p, cmd.chan, Value, "get")
        p.seq_env[cmd.binder] = value
        row = (p.pid, "GET", cmd.chan, e.cid, value)
        self._advance(p)
        return row

    def _exec_hput(self, p: ProcessInstance, cmd: HPut) -> tuple:
        e = p.chan_env.get(cmd.chan)
        if e is None or e.cid not in self.channels:
            self._binding(p, cmd.chan)
        e.peer.inbox.append(cmd.handle)
        row = (p.pid, "HPUT", cmd.chan, e.cid, cmd.handle)
        self._advance(p)
        return row

    def _exec_hcase(self, p: ProcessInstance, cmd: HCase) -> tuple:
        e, handle = self._pop(p, cmd.chan, str, "hcase")
        for arm in cmd.arms:
            if arm.label == handle:
                break
        else:
            raise MachineFault("IllegalCommand",
                               f"hcase on {cmd.chan!r} has no arm for "
                               f"handle {handle}")
        # The arm's first command is next: an arm body is never empty.
        p.body, p.at = arm.body + p.body[p.at + 1:], 0
        return p.pid, "HCASE", cmd.chan, e.cid, handle

    def _exec_close(self, p: ProcessInstance, cmd: Close) -> tuple:
        e = self._close_end(p, cmd.chan)
        row = (p.pid, "CLOSE", cmd.chan, e.cid, None)
        self._advance(p)
        return row

    def _exec_halt(self, p: ProcessInstance, cmd: Halt) -> tuple:
        e = self._close_end(p, cmd.chan)
        row = (p.pid, "HALT", cmd.chan, e.cid, None)
        self._finish(p)
        return row

    def _exec_race(self, p: ProcessInstance, cmd: Race) -> tuple:
        arm = resolve_race(self._race_ready(p, cmd), self.rng)
        p.body, p.at = arm.body + p.body[p.at + 1:], 0
        return p.pid, "RACE", arm.label, p.chan_env[arm.label].cid, None

    def _exec_neg(self, p: ProcessInstance, cmd: NegIntro) -> tuple:
        e = self._binding(p, cmd.chan)
        del p.chan_env[cmd.chan]
        p.chan_env[cmd.fresh] = e
        row = (p.pid, "NEG", cmd.fresh, e.cid, None)
        self._advance(p)
        return row

    # -- helpers -------------------------------------------------------------

    def _advance(self, p: ProcessInstance) -> None:
        """Move past the current command, and finish the process when its
        body has run out."""
        p.at += 1
        if p.at == len(p.body):
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
        """The end `p` binds to `chan`, and the message taken from it."""
        e = p.chan_env.get(chan)
        if e is None or e.cid not in self.channels:
            self._binding(p, chan)
        q = e.inbox
        if not q:
            raise MachineFault("IllegalCommand",
                               f"{command} on {chan!r} scheduled with an "
                               f"empty queue")
        msg = q.popleft()
        if not isinstance(msg, want):
            raise MachineFault("IllegalCommand",
                               f"{command} on {chan!r} found "
                               f"{_kind(msg)} at the queue head")
        return e, msg

    def _close_end(self, p: ProcessInstance, chan: str) -> EndState:
        e = p.chan_env.get(chan)
        if e is None or e.cid not in self.channels:
            self._binding(p, chan)
        del p.chan_env[chan]
        e.peer.inbox.append(_CLOSE)
        e.closed = True
        self._reap(e)
        return e

    def _release(self, e: EndState) -> None:
        """Close and disown one end, if its channel is still there."""
        if e.cid in self.channels:
            e.owner = None
            e.closed = True
            # The monitor reads a released end only for the fork messages
            # in its inbox, which carry the ends pending through it.
            if RewireMsg in map(type, e.inbox):
                self._released.append(e)
            self._reap(e)

    def _reap(self, e: EndState) -> None:
        """Drop `e`'s channel once both its ends are closed, and unlink
        its ends: nothing reads the peer of an end whose channel is gone."""
        if e.closed and e.peer.closed:
            self.channels.pop(e.cid, None)
            # pending ends that would be claimed through these now resolve
            # to no one
            peer = e.peer
            e.owner = peer.owner = e.peer = peer.peer = None
            if RewireMsg in map(type, e.inbox):
                self._released.append(e)
            if RewireMsg in map(type, peer.inbox):
                self._released.append(peer)

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

    def _plan(self, key, build, *args):
        """`build(program, *args)`, kept under `key` only by a checked
        machine: unchecked, a node's process may hold other names."""
        plan = build(self.program, *args)
        if self.checked:
            self.plans[key] = plan
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
            pid = self._next_pid
            self._next_pid += 1
            self.processes[pid] = ProcessInstance(
                pid, p.name + suffix, dict(p.seq_env), env, body, 0)
            for e in env.values():
                e.owner = pid
        for name in plan.released:
            self._release(held[name])

    def _exec_fork(self, p: ProcessInstance, cmd: Fork) -> tuple:
        e = p.chan_env.get(cmd.chan)
        if e is None or e.cid not in self.channels:
            self._binding(p, cmd.chan)
        del p.chan_env[cmd.chan]
        plan = (self.plans.get(id(cmd))
                or self._plan(id(cmd), _fork_plan, cmd, p.chan_env))
        # The forker's children take end 0 of each new channel.  End 1
        # waits for the peer's split; until then it is claimed through
        # the carrier's far end, whose holder may change meanwhile.
        left, right = cmd.arms
        l0, l1 = self._new_channel(left.label)
        r0, r1 = self._new_channel(right.label)
        l1.owner = r1.owner = e.peer
        e.peer.inbox.append(RewireMsg(l0.cid, (l1, r1)))
        row = (p.pid, "FORK", cmd.chan, e.cid,
               plan.payload % (l0.cid, r0.cid))
        self._release(e)
        self._hand_off(p, plan, [{left.label: l0}, {right.label: r0}])
        return row

    def _exec_split(self, p: ProcessInstance, cmd: Split) -> tuple:
        e, msg = self._pop(p, cmd.chan, RewireMsg, "split")
        del p.chan_env[cmd.chan]
        self._release(e)
        for name, claimed in zip((cmd.left, cmd.right), msg.ends):
            claimed.owner = p.pid
            p.chan_env[name] = claimed
        row = (p.pid, "SPLIT", cmd.left, msg.cid_left, cmd.right)
        self._advance(p)
        return row

    def _exec_plug(self, p: ProcessInstance, cmd: Plug) -> tuple:
        plan = (self.plans.get(id(cmd))
                or self._plan(id(cmd), _plug_plan, cmd, p.chan_env))
        envs: list[dict] = [{} for _ in plan.children]
        first = self._next_cid
        for name, i, j in plan.joins:
            envs[i][name], envs[j][name] = self._new_channel(name)
        if not plan.forest:
            self._added += range(first, self._next_cid)
        row = (p.pid, "PLUG", None, None, plan.payload)
        self._hand_off(p, plan, envs)
        return row

    def _exec_invoke(self, p: ProcessInstance, cmd: Call | Use) -> tuple:
        """Replace `p`'s continuation with a called or stored process."""
        if type(cmd) is Call:
            plan = (self.plans.get(id(cmd))
                    or self._plan(id(cmd), _invocation, cmd))
            kind, name, seq_env = "CALL", plan.proc.name, {}
        else:
            value = self._eval(p, cmd.stored)
            if not isinstance(value, StoredProc):
                raise MachineFault("IllegalCommand",
                                   f"use of a non-process value "
                                   f"{render(value)}")
            d = value.proc
            plan = _invocation(self.program, cmd, d)
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
        p.name = name
        p.seq_env = seq_env
        p.chan_env = chan_env
        p.body, p.at = plan.proc.body, 0
        return p.pid, kind, None, None, plan.proc.name

    def _exec_link(self, p: ProcessInstance, cmd: Link) -> tuple:
        left, right = self._binding(p, cmd.left), self._binding(p, cmd.right)
        cid = self._next_cid
        self._next_cid += 1
        row = (p.pid, "LINK", cmd.left, left.cid, f"{cmd.right}->#{cid}")
        # The peers' ends move into the fused channel, a fresh id under
        # both labels, facing each other, and whoever holds or will claim
        # them follows.  An end that is both (a |=| a) becomes its own peer.
        a, b = left.peer, right.peer
        a.label = b.label = f"{left.label}|=|{right.label}"
        for old in (left.cid, right.cid):
            self.channels.pop(old, None)
        a.cid = b.cid = cid
        a.peer, b.peer = b, a
        self.channels[cid] = a
        self._added.append(cid)
        # A pending end this process would have claimed goes to the
        # opposite peer, which now receives what was sent this way.
        for moved, to in ((left, b), (right, a)):
            moved.owner = to
            self._released.append(moved)
        # Each peer keeps what this process already sent it, then receives
        # what the other peer had in flight toward this process.  The
        # fork messages among them carry the pending ends just redirected.
        b.inbox.extend(left.inbox)
        a.inbox.extend(right.inbox)
        p.chan_env.clear()
        del self.processes[p.pid]
        self._reap(a)
        return row

    # -- services ------------------------------------------------------------

    def _drain_services(self) -> None:
        for service in self.services:
            if service.cid not in self.channels:
                continue
            while service.inbox:
                reply = service.owner.handle(service.inbox.popleft())
                if reply is not None:
                    service.peer.inbox.append(reply)
                if service.owner.closed:
                    service.closed = True
                    self._reap(service)
                    break


def boot(program: ExecProgram, seed: int = 0,
         services: ServiceConfig | None = None,
         trace_hook: Callable[[TraceEvent], None] | None = None,
         checked: bool = True) -> Machine:
    """Create and boot a machine: one process for `run`, one service
    channel per service parameter in its context, RNG seeded.  A program
    that has not passed `check_program` must be booted `checked=False`."""
    return Machine(program, seed, services, trace_hook, checked).boot()


def _cannot_execute(machine: Machine, p: ProcessInstance, cmd) -> tuple:
    raise MachineFault("IllegalCommand",
                       f"cannot execute {type(cmd).__name__}")


# How a step runs each command class: the handler returns the step's trace
# row.  `OnDo` is absent: `prepare` desugars it away, so a raw one is an
# illegal command.
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
