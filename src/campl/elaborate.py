"""Desugaring and static channel-usage analysis shared by the checker and
the runtime.

`on ch do` blocks elaborate into the same commands with the channel
argument filled in; `free_chans` computes which channel names a command
sequence uses from its environment, accounting for the binders introduced
by fork, split, and neg.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .model import (
    Body, Call, Close, Fork, GetVal, Halt, HCase, HPut, Link, NegIntro, OnDo,
    Plug, ProcDef, PutVal, Race, SourceProgram, Split, StoreOf, Use,
    map_command,
)


def desugar_body(body: Body, default: str | None = None) -> Body:
    sub = desugar_body if default is None else (
        lambda b: desugar_body(b, default))
    out = []
    for cmd in body:
        if type(cmd) is OnDo:
            out.extend(desugar_body(cmd.body, cmd.chan))
            continue
        cmd = map_command(cmd, sub, _desugar_expr)
        if default is not None and getattr(cmd, "chan", "") is None:
            cmd = replace(cmd, chan=default)
        out.append(cmd)
    return tuple(out)


def _desugar_expr(e):
    if isinstance(e, StoreOf) and isinstance(e.target, ProcDef):
        return StoreOf(desugar_proc(e.target), pos=e.pos)
    return e


def desugar_proc(d: ProcDef) -> ProcDef:
    return ProcDef(d.name, d.signature, d.seq_params, d.in_params,
                   d.out_params, desugar_body(d.body), pos=d.pos)


@dataclass
class ExecProgram:
    """A program readied for checking or execution: every process body is
    fully desugared."""
    procs: dict[str, ProcDef]
    # id(body) -> (body, its free channels); holding the body keeps its
    # id from being reused while the entry lives.
    _free: dict[int, tuple[Body, frozenset[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # The machine's per-node plans (see `runtime`), keyed by id(node) and
    # what else a plan depends on; each plan holds its node, keeping the id.
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
    do not count; fork arm binders are local to their arm.  The reference
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
            for b in cmd.branches:
                acc |= sub(b)
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
