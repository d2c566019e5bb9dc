"""Desugaring and static channel-usage analysis shared by the checker and
the runtime.

`on ch do` blocks elaborate into the same commands with the channel
argument filled in; `free_chans` computes which channel names a command
sequence uses from its environment, accounting for the binders introduced
by fork, split, and neg and the channels a plug joins.

`prepare` is the only walk over the process bodies before checking: as it
desugars a process it records the processes that process calls or stores
(`ExecProgram.refs`), which is the call graph the checker orders its work
by.  A command outside every `on` block that nests no body and holds no
expression is kept as it is, unvisited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .model import (
    Body, Call, Close, Fork, GetVal, Halt, HCase, HPut, Link, NegIntro, OnDo,
    Plug, ProcDef, PutVal, Race, SourceProgram, Split, StoreOf, Use,
    map_command,
)


class _Desugaring:
    """One walk over a process: it desugars every body and records, in
    `refs`, the names of the processes the process calls or stores, in
    order of mention (an inline stored process's included).  Methods, not
    closures: a recursive closure is a reference cycle, left for the
    collector."""

    def __init__(self):
        self.refs: list[str] = []
        self.chan: str | None = None    # the enclosing `on` block's channel

    def proc(self, d: ProcDef) -> ProcDef:
        body = self.body(d.body)
        return d if body is d.body else ProcDef(
            d.name, d.signature, d.seq_params, d.in_params, d.out_params,
            body, pos=d.pos)

    def body(self, body: Body) -> Body:
        """`body` with every `on` block spliced into its commands, each
        given the block's channel where it names none; `body` itself when
        no command changes, so a program without `on` blocks keeps its
        trees."""
        chan = self.chan
        out = []
        changed = False
        for cmd in body:
            k = type(cmd)
            if k is OnDo:
                self.chan = cmd.chan
                out.extend(self.body(cmd.body))
                self.chan = chan
                changed = True
                continue
            if k in _LEAVES:
                new = cmd
            else:
                if k is Call:
                    self.refs.append(cmd.callee)
                new = map_command(cmd, self.body, self.expr)
            if chan is not None and getattr(new, "chan", "") is None:
                new = _WITH_CHAN[k](new, chan)
            if new is not cmd:
                changed = True
            out.append(new)
        return tuple(out) if changed else body

    def expr(self, e):
        if type(e) is StoreOf:
            target = e.target
            if type(target) is str:
                self.refs.append(target)
                return e
            # An inline process sees no enclosing `on` block.
            chan, self.chan = self.chan, None
            target = self.proc(target)
            self.chan = chan
            return e if target is e.target else StoreOf(target, pos=e.pos)
        return e


# Commands that nest no body and hold no expression: only an `on` block
# can change them.
_LEAVES = frozenset({GetVal, HPut, Close, Halt, Split, Link, NegIntro})

# Each command whose channel an `on` block may supply, rebuilt on `ch`.
_WITH_CHAN = {
    PutVal: lambda c, ch: PutVal(c.expr, ch, c.pos),
    GetVal: lambda c, ch: GetVal(c.binder, ch, c.pos),
    HPut: lambda c, ch: HPut(c.handle, ch, c.pos),
    HCase: lambda c, ch: HCase(ch, c.arms, c.pos),
    Close: lambda c, ch: Close(ch, c.pos),
    Halt: lambda c, ch: Halt(ch, c.pos),
    Fork: lambda c, ch: Fork(ch, c.arms, c.pos),
    Split: lambda c, ch: Split(ch, c.left, c.right, c.pos),
}


@dataclass
class ExecProgram:
    """A program readied for checking or execution: every process body is
    fully desugared.  `refs` holds, per process, the names of the
    processes it calls or stores, in order of mention: the call graph the
    checker orders its work by, recorded by the desugaring walk."""
    procs: dict[str, ProcDef]
    refs: dict[str, list[str]] = field(default_factory=dict)
    # id(body) -> (body, its free channels); holding the body keeps its
    # id from being reused while the entry lives.
    _free: dict[int, tuple[Body, frozenset[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # A checked machine's per-node plans (see `runtime`), keyed by id(node)
    # (a use's also by its stored process); each holds its node's id.
    plans: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def free_chans(self, body: Body) -> frozenset[str]:
        """`free_chans(body)`, computed once per body of this program;
        nested bodies come from the memo too."""
        entry = self._free.get(id(body))
        if entry is None:
            entry = self._free[id(body)] = (
                body, _free_body(body, self.free_chans))
        return entry[1]


def prepare(src: SourceProgram) -> ExecProgram:
    procs, refs = {}, {}
    for name, d in src.procs.items():
        walk = _Desugaring()
        procs[name] = walk.proc(d)
        refs[name] = walk.refs
    return ExecProgram(procs, refs)


def free_chans(body: Body) -> frozenset[str]:
    """Channel names a (desugared) command sequence uses from its
    environment.  Names bound later in the sequence by split/neg binders
    do not count; fork arm binders are local to their arm, and a plug
    binds each name free in exactly two of its branches.  The reference
    for `ExecProgram.free_chans`."""
    return _free_body(body, free_chans)


def _free_body(body: Body, sub: Callable[[Body], frozenset[str]]
               ) -> frozenset[str]:
    """`free_chans(body)`, with each nested body's set from `sub`."""
    acc: set[str] = set()
    for cmd in reversed(body):
        if isinstance(cmd, (PutVal, GetVal, HPut, Close, Halt)):
            if cmd.chan:
                acc.add(cmd.chan)
        elif isinstance(cmd, HCase):
            for a in cmd.arms:
                acc |= sub(a.body)
            if cmd.chan:
                acc.add(cmd.chan)
        elif isinstance(cmd, Fork):
            for a in cmd.arms:
                acc |= sub(a.body) - {a.name}
            if cmd.chan:
                acc.add(cmd.chan)
        elif isinstance(cmd, Split):
            acc -= {cmd.left, cmd.right}
            if cmd.chan:
                acc.add(cmd.chan)
        elif isinstance(cmd, NegIntro):
            acc.discard(cmd.fresh)
            acc.add(cmd.chan)
        elif isinstance(cmd, Plug):
            # A name free in exactly two branches is a channel the plug
            # joins, bound here like a fork's arm names.
            branches: dict[str, int] = {}
            for b in cmd.branches:
                for name in sub(b):
                    branches[name] = branches.get(name, 0) + 1
            acc.update(n for n, count in branches.items() if count != 2)
        elif isinstance(cmd, Race):
            for a in cmd.arms:
                acc |= sub(a.body)
                acc.add(a.chan)
        elif isinstance(cmd, (Call, Use)):
            acc.update(cmd.chan_args)
        elif isinstance(cmd, Link):
            acc.add(cmd.left)
            acc.add(cmd.right)
        elif isinstance(cmd, OnDo):
            raise ValueError("free_chans expects a desugared body")
        else:
            raise TypeError(f"unhandled command {type(cmd).__name__}")
    return frozenset(acc)
