"""Desugaring and static channel-usage analysis shared by the checker and
the runtime.

`on ch do` blocks elaborate into the same commands with the channel
argument filled in; `ExecProgram.free_chans` computes which channel names
a command sequence uses from its environment, accounting for the binders
introduced by fork, split, and neg and the channels a plug joins.  Shared
too are `share_out`, the rule for which plug branch or fork arm uses each
name, and `cycle_edges`, the forest test of plugs and of the running
network.

`prepare` is the only walk over the process bodies before checking: as it
desugars a process it records the processes that process calls or stores
(`ExecProgram.refs`), which is the call graph the checker orders its work
by.  A command outside every `on` block that nests no body and holds no
expression is kept as it is, unvisited.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .model import (
    WITH_CHAN, Body, Call, Close, Field, Fork, GetVal, Halt, HCase, HPut,
    Link, NegIntro, OnDo, Plug, ProcDef, PutVal, Race, SourceProgram, Split,
    StoreOf, Use, map_command, record,
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
                new = WITH_CHAN[k](new, chan)
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


@record
class ExecProgram:
    """A program readied for checking or execution: every process body is
    fully desugared.  `refs` holds, per process, the names of the
    processes it calls or stores, in order of mention: the call graph the
    checker orders its work by, recorded by the desugaring walk."""
    procs: dict[str, ProcDef]
    refs: dict[str, list[str]] = Field(factory=dict)
    # id(body) -> (body, its free channels); holding the body keeps its
    # id from being reused while the entry lives.
    _free: dict[int, tuple[Body, frozenset[str]]] = Field(derived="{}")

    def free_chans(self, body: Body) -> frozenset[str]:
        """The channel names `body` uses from its environment
        (`_free_body`), computed once per body of this program; nested
        bodies come from the memo too."""
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


def share_out(frees: Iterable[frozenset[str]]) -> dict[str, list[int]]:
    """For each name in `frees`, the free sets of a plug's branches or a
    fork's arms, the indices of the sets that hold it, in order.  A plug
    joins each name its process does not hold (it needs exactly two
    branches); each held name goes to the first branch or arm that uses
    it."""
    users: dict[str, list[int]] = {}
    for i, names in enumerate(frees):
        for name in names:
            users.setdefault(name, []).append(i)
    return users


def cycle_edges(edges: Iterable[tuple]) -> list:
    """The keys of the `(key, a, b)` edges that close a cycle, in order:
    those whose ends the edges before them already connect.  Empty when
    the edges form a forest.  Nodes are any hashable values."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    closing = []
    for key, a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            closing.append(key)
        else:
            parent[ra] = rb
    return closing


def _free_body(body: Body, sub: Callable[[Body], frozenset[str]]
               ) -> frozenset[str]:
    """Channel names a (desugared) command sequence uses from its
    environment, with each nested body's set from `sub`.  Names bound
    later in the sequence by split/neg binders do not count; fork arm
    binders are local to their arm, and a plug binds each name free in
    exactly two of its branches."""
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
                acc |= sub(a.body) - {a.label}
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
            for name, where in share_out(map(sub, cmd.branches)).items():
                if len(where) != 2:
                    acc.add(name)
        elif isinstance(cmd, Race):
            for a in cmd.arms:
                acc |= sub(a.body)
                acc.add(a.label)
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
