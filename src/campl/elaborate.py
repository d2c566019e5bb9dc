"""Desugaring and static channel-usage analysis shared by the checker and
the runtime.

`on ch do` blocks elaborate into the same commands with the channel
argument filled in; `free_chans` computes which channel names a command
sequence uses from its environment, accounting for the binders introduced
by fork, split, and neg.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    source: SourceProgram
    procs: dict[str, ProcDef]


def prepare(src: SourceProgram) -> ExecProgram:
    procs = {name: desugar_proc(d) for name, d in src.procs.items()}
    return ExecProgram(src, procs)


def free_chans(body: Body) -> frozenset[str]:
    """Channel names a (desugared) command sequence uses from its
    environment.  Names bound later in the sequence by split/neg binders
    do not count; fork arm binders are local to their arm."""
    acc: set[str] = set()
    for cmd in reversed(body):
        acc = _free_cmd(cmd, acc)
    return frozenset(acc)


def _free_cmd(cmd, after: set[str]) -> set[str]:
    if isinstance(cmd, (PutVal, GetVal, HPut, Close, Halt)):
        return after | ({cmd.chan} if cmd.chan else set())
    if isinstance(cmd, HCase):
        acc = set(after)
        for a in cmd.arms:
            acc |= free_chans(a.body)
        if cmd.chan:
            acc.add(cmd.chan)
        return acc
    if isinstance(cmd, Fork):
        acc = set(after)
        for a in cmd.arms:
            acc |= free_chans(a.body) - {a.name}
        if cmd.chan:
            acc.add(cmd.chan)
        return acc
    if isinstance(cmd, Split):
        acc = after - {cmd.left, cmd.right}
        if cmd.chan:
            acc.add(cmd.chan)
        return acc
    if isinstance(cmd, NegIntro):
        return (after - {cmd.fresh}) | {cmd.chan}
    if isinstance(cmd, Plug):
        acc = set(after)
        for b in cmd.branches:
            acc |= free_chans(b)
        return acc
    if isinstance(cmd, Race):
        acc = set(after)
        for a in cmd.arms:
            acc |= free_chans(a.body)
            acc.add(a.chan)
        return acc
    if isinstance(cmd, (Call, Use)):
        return after | set(cmd.chan_args)
    if isinstance(cmd, Link):
        return after | {cmd.left, cmd.right}
    if isinstance(cmd, OnDo):
        raise ValueError("free_chans expects a desugared body")
    raise TypeError(f"unhandled command {type(cmd).__name__}")
