"""Canonical pretty-printer.

`roundtrip_print` emits a normal form that re-parses to an equal AST
(positions aside): bodies and arm bodies always use explicit `do` blocks,
indentation is four spaces per level, and string literals are re-escaped.
"""

from __future__ import annotations

from .model import (
    BoolLit, Call, CharLit, Close, Fork, GetVal, Halt, HCase, HPut, IntLit,
    Link, NegIntro, OnDo, Plug, ProcDef, ProcSignature, ProtocolDecl,
    PutVal, Race, SourceProgram, Split, StoreOf, StringLit, Use, VarRef,
    DeclKind,
)

STEP = "    "


def roundtrip_print(program: SourceProgram) -> str:
    chunks = []
    for d in program.decls:
        if isinstance(d, ProcDef):
            chunks.append(_proc(d, 0))
        else:
            chunks.append(_protocol(d))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def _protocol(d: ProtocolDecl) -> str:
    params = ", ".join(d.seq_params)
    head = f"{d.name}({params}|)"
    lines = []
    if d.kind is DeclKind.PROTOCOL:
        lines.append(f"protocol {head} => {d.state_var} =")
        for h in d.handles:
            lines.append(f"{STEP}{h.name} :: {h.body} => {d.state_var}")
    else:
        lines.append(f"coprotocol {d.state_var} => {head} =")
        for h in d.handles:
            lines.append(f"{STEP}{h.name} :: {d.state_var} => {h.body}")
    return "\n".join(lines)


def _sig_inline(sig: ProcSignature) -> str:
    seqs = ", ".join(map(str, sig.seq_params))
    ins = ", ".join(map(str, sig.in_chans))
    outs = ", ".join(map(str, sig.out_chans))
    return f"{seqs} | {ins} => {outs}".strip()


def _proc(d: ProcDef, level: int) -> str:
    ind = STEP * level
    head = f"{ind}proc {d.name}"
    if d.signature is not None:
        head += f" :: {_sig_inline(d.signature)}"
    head += " ="
    ctx = _context(d.seq_params, d.in_params, d.out_params)
    lines = [head, f"{ind}{STEP}{ctx} -> do"]
    lines.extend(_body(d.body, level + 2))
    return "\n".join(lines)


def _body(body: tuple, level: int) -> list[str]:
    lines = []
    for cmd in body:
        lines.extend(_command(cmd, level))
    return lines


def _command(cmd, level: int) -> list[str]:
    ind = STEP * level
    on = lambda c: f" on {c}" if c else ""
    sp = lambda c: f" {c}" if c else ""
    if isinstance(cmd, PutVal):
        return [f"{ind}put {_expr(cmd.expr, level)}{on(cmd.chan)}"]
    if isinstance(cmd, GetVal):
        return [f"{ind}get {cmd.binder}{on(cmd.chan)}"]
    if isinstance(cmd, HPut):
        return [f"{ind}hput {cmd.handle}{on(cmd.chan)}"]
    if isinstance(cmd, Close):
        return [f"{ind}close{sp(cmd.chan)}"]
    if isinstance(cmd, Halt):
        return [f"{ind}halt{sp(cmd.chan)}"]
    if isinstance(cmd, HCase):
        return _arms(cmd, level, f"hcase{sp(cmd.chan)} of")
    if isinstance(cmd, Fork):
        return _arms(cmd, level, f"fork{sp(cmd.chan)} as")
    if isinstance(cmd, Split):
        return [f"{ind}split{sp(cmd.chan)} into {cmd.left}, {cmd.right}"]
    if isinstance(cmd, Plug):
        lines = [f"{ind}plug"]
        for branch in cmd.branches:
            lines.append(f"{ind}{STEP}do")
            lines.extend(_body(branch, level + 2))
        return lines
    if isinstance(cmd, Race):
        return _arms(cmd, level, "race")
    if isinstance(cmd, Call):
        return [f"{ind}{cmd.callee}{_args(cmd, level)}"]
    if isinstance(cmd, Use):
        return [f"{ind}use({_expr(cmd.stored, level)}){_args(cmd, level)}"]
    if isinstance(cmd, Link):
        return [f"{ind}{cmd.left} |=| {cmd.right}"]
    if isinstance(cmd, NegIntro):
        return [f"{ind}neg {cmd.chan} as {cmd.fresh}"]
    if isinstance(cmd, OnDo):
        lines = [f"{ind}on {cmd.chan} do"]
        lines.extend(_body(cmd.body, level + 1))
        return lines
    raise TypeError(f"cannot print {type(cmd).__name__}")


def _arms(cmd, level: int, head: str):
    """The lines of an hcase, fork or race: its `head` line, then each arm,
    headed by its label, and its body, printed here so a level of nesting
    costs two frames."""
    ind = STEP * level
    lines = [f"{ind}{head}"]
    for arm in cmd.arms:
        lines.append(f"{ind}{STEP}{arm.label} -> do")
        for sub in arm.body:
            lines.extend(_command(sub, level + 2))
    return lines


def _args(cmd, level: int) -> str:
    seqs = [_expr(e, level) for e in cmd.seq_args]
    return f"( {_context(seqs, cmd.in_chans, cmd.out_chans)} )"


def _context(seqs, ins, outs) -> str:
    """The context line `seqs | ins => outs` of a process's parameters or
    a call's arguments, all given as text; an empty list leaves no gap."""
    line = f"{', '.join(seqs)} |" if seqs else "|"
    line += f" {', '.join(ins)} =>" if ins else " =>"
    return f"{line} {', '.join(outs)}" if outs else line


def _escape(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _expr(e, level: int) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, StringLit):
        return f'"{_escape(e.value)}"'
    if isinstance(e, CharLit):
        c = e.value
        c = {"\n": "\\n", "'": "\\'", "\\": "\\\\"}.get(c, c)
        return f"'{c}'"
    if isinstance(e, BoolLit):
        return "True" if e.value else "False"
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, StoreOf):
        if isinstance(e.target, str):
            return f"store({e.target})"
        inner = _proc(e.target, level + 1)
        return f"store({inner.lstrip()}\n{STEP * level})"
    raise TypeError(f"cannot print {type(e).__name__}")
