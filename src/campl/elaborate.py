"""Desugaring and static channel-usage analysis shared by the checker and
the runtime.

`on ch do` blocks elaborate into the same commands with the channel
argument filled in; `free_chans` computes which channel names a command
sequence uses from its environment, accounting for the binders introduced
by fork, split, and neg and the channels a plug joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .model import (
    Body, Call, Close, Fork, GetVal, Halt, HCase, HPut, Link, NegIntro, OnDo,
    Plug, ProcDef, PutVal, Race, SourceProgram, Split, StoreOf, Use,
    map_command,
)


def desugar_body(body: Body, default: str | None = None) -> Body:
    """`body` with every `on` block spliced into its commands, each given
    the block's channel where it names none; `body` itself when no command
    changes, so a program without `on` blocks keeps its trees."""
    sub = desugar_body if default is None else (
        lambda b: desugar_body(b, default))
    out = []
    changed = False
    for cmd in body:
        if type(cmd) is OnDo:
            out.extend(desugar_body(cmd.body, cmd.chan))
            changed = True
            continue
        new = map_command(cmd, sub, _desugar_expr)
        if default is not None and getattr(new, "chan", "") is None:
            new = _WITH_CHAN[type(new)](new, default)
        changed = changed or new is not cmd
        out.append(new)
    return tuple(out) if changed else body


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


def _desugar_expr(e):
    if isinstance(e, StoreOf) and isinstance(e.target, ProcDef):
        target = desugar_proc(e.target)
        return e if target is e.target else StoreOf(target, pos=e.pos)
    return e


def desugar_proc(d: ProcDef) -> ProcDef:
    body = desugar_body(d.body)
    return d if body is d.body else ProcDef(
        d.name, d.signature, d.seq_params, d.in_params, d.out_params, body,
        pos=d.pos)


@dataclass
class ExecProgram:
    """A program readied for checking or execution: every process body is
    fully desugared."""
    procs: dict[str, ProcDef]
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
    procs = {name: desugar_proc(d) for name, d in src.procs.items()}
    return ExecProgram(procs)


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
