"""Core data model shared by the parser, checker, and runtime.

Holds the channel and sequential type grammars, the process AST, the
per-type/per-polarity command permission matrix, and the unfolding rule
that expands a protocol or coprotocol handle into a concrete channel type.

Everything here is an immutable value: safe to share freely between any
number of checks or machine runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union


# ---------------------------------------------------------------------------
# source positions

@dataclass(frozen=True)
class Pos:
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_POS = Pos()


def pos_field():
    """Position slot that does not participate in equality or repr."""
    return field(default=NO_POS, compare=False, repr=False)


# ---------------------------------------------------------------------------
# polarities

class Polarity(Enum):
    OUTPUT = "+"   # left end of a channel
    INPUT = "-"    # right end of a channel

    def flipped(self) -> "Polarity":
        return Polarity.INPUT if self is Polarity.OUTPUT else Polarity.OUTPUT

    def __str__(self) -> str:
        return self.value


OUTPUT = Polarity.OUTPUT
INPUT = Polarity.INPUT


# ---------------------------------------------------------------------------
# sequential types

@dataclass(frozen=True)
class BaseSeq:
    """A built-in atomic sequential type (Int, Char, Bool, [Char])."""
    name: str

    def __str__(self) -> str:
        return self.name


INT = BaseSeq("Int")
CHAR = BaseSeq("Char")
BOOL = BaseSeq("Bool")
STRING = BaseSeq("[Char]")     # `String` in source is sugar for `[Char]`


@dataclass(frozen=True)
class StoreType:
    """Type of a stored process; `sig` is the signature it must be used at."""
    sig: "ProcSignature"

    def __str__(self) -> str:
        return f"Store({render_signature(self.sig)})"


@dataclass(frozen=True)
class SeqVar:
    """Sequential type parameter of a protocol/coprotocol declaration."""
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SeqUVar:
    """Sequential unification variable; never survives into checked output."""
    uid: int

    def __str__(self) -> str:
        return f"?s{self.uid}"


SeqType = Union[BaseSeq, StoreType, SeqVar, SeqUVar]


# ---------------------------------------------------------------------------
# channel types

@dataclass(frozen=True)
class TopBot:
    def __str__(self) -> str:
        return "TopBot"


TOPBOT = TopBot()


@dataclass(frozen=True)
class Put:
    msg: SeqType
    rest: "ChanType"

    def __str__(self) -> str:
        return f"Put({self.msg}|{self.rest})"


@dataclass(frozen=True)
class Get:
    msg: SeqType
    rest: "ChanType"

    def __str__(self) -> str:
        return f"Get({self.msg}|{self.rest})"


@dataclass(frozen=True)
class Tensor:
    left: "ChanType"
    right: "ChanType"

    def __str__(self) -> str:
        return f"{_mul_operand(self.left)} (*) {_mul_operand(self.right)}"


@dataclass(frozen=True)
class Par:
    left: "ChanType"
    right: "ChanType"

    def __str__(self) -> str:
        return f"{_mul_operand(self.left)} (+) {_mul_operand(self.right)}"


@dataclass(frozen=True)
class NegT:
    inner: "ChanType"

    def __str__(self) -> str:
        return f"Neg({self.inner})"


@dataclass(frozen=True)
class ProtoApp:
    """Application of a named protocol to sequential type arguments."""
    name: str
    args: tuple[SeqType, ...] = ()

    def __str__(self) -> str:
        return _render_app(self.name, self.args)


@dataclass(frozen=True)
class CoprotoApp:
    name: str
    args: tuple[SeqType, ...] = ()

    def __str__(self) -> str:
        return _render_app(self.name, self.args)


@dataclass(frozen=True)
class StateVar:
    """Recursion variable inside a protocol/coprotocol declaration body."""
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UVar:
    """Channel-type unification variable used only during inference."""
    uid: int

    def __str__(self) -> str:
        return f"?c{self.uid}"


ChanType = Union[
    TopBot, Put, Get, Tensor, Par, NegT, ProtoApp, CoprotoApp, StateVar, UVar
]


def _mul_operand(t: ChanType) -> str:
    if isinstance(t, (Tensor, Par)):
        return f"({t})"
    return str(t)


def _render_app(name: str, args: tuple[SeqType, ...]) -> str:
    if not args:
        return name
    return f"{name}({', '.join(str(a) for a in args)}|)"


# ---------------------------------------------------------------------------
# process signatures and protocol declarations

@dataclass(frozen=True)
class ProcSignature:
    """Typed shape of a process: sequential params, then input channels,
    then output channels.  Order is binding order."""
    seq_params: tuple[SeqType, ...] = ()
    in_chans: tuple[ChanType, ...] = ()
    out_chans: tuple[ChanType, ...] = ()


# ---------------------------------------------------------------------------
# type traversal: every pass over types recurses through these two, so a new
# constructor is taught to the checker and resolver here, once.

def type_parts(t) -> tuple:
    """The channel and sequential types directly inside `t`, in order; a
    stored process contributes its whole signature."""
    k = type(t)
    if k is Put or k is Get:
        return (t.msg, t.rest)
    if k is Tensor or k is Par:
        return (t.left, t.right)
    if k is NegT:
        return (t.inner,)
    if k is ProtoApp or k is CoprotoApp:
        return t.args
    if k is StoreType:
        sig = t.sig
        return sig.seq_params + sig.in_chans + sig.out_chans
    return ()


def map_type(t, f):
    """`t` rebuilt with `f` applied to each of its `type_parts`; atoms and
    variables come back unchanged."""
    k = type(t)
    if k is BaseSeq or k is TopBot:
        return t
    if k is Put or k is Get:
        return k(f(t.msg), f(t.rest))
    if k is Tensor or k is Par:
        return k(f(t.left), f(t.right))
    if k is NegT:
        return NegT(f(t.inner))
    if k is ProtoApp or k is CoprotoApp:
        return k(t.name, tuple(map(f, t.args)))
    if k is StoreType:
        return StoreType(map_signature(t.sig, f))
    return t


def map_signature(sig: ProcSignature, f) -> ProcSignature:
    return ProcSignature(tuple(map(f, sig.seq_params)),
                         tuple(map(f, sig.in_chans)),
                         tuple(map(f, sig.out_chans)))


def render_signature(sig: ProcSignature) -> str:
    seqs = ", ".join(str(t) for t in sig.seq_params)
    ins = ", ".join(str(t) for t in sig.in_chans)
    outs = ", ".join(str(t) for t in sig.out_chans)
    return f"{seqs}|{ins}=>{outs}"


class DeclKind(Enum):
    PROTOCOL = "protocol"
    COPROTOCOL = "coprotocol"


@dataclass
class HandleDef:
    name: str
    body: ChanType
    pos: Pos = pos_field()


@dataclass
class ProtocolDecl:
    """A protocol or coprotocol declaration.

    Handle bodies may mention only the declared sequential parameters and
    the state variable; handle names are globally unique across all
    declarations.
    """
    name: str
    kind: DeclKind
    seq_params: tuple[str, ...]
    state_var: str
    handles: tuple[HandleDef, ...]
    pos: Pos = pos_field()

    def handle(self, name: str) -> HandleDef | None:
        for h in self.handles:
            if h.name == name:
                return h
        return None


# ---------------------------------------------------------------------------
# command permission matrix

class UnknownHandle(Exception):
    pass


def allowed_commands(t: ChanType, p: Polarity) -> frozenset[str]:
    """Which command kinds may act on a channel of type `t` held at
    polarity `p`.  Total over ground channel types."""
    if isinstance(t, TopBot):
        return frozenset({"close", "halt"})
    if isinstance(t, Put):
        return frozenset({"put"}) if p is OUTPUT else frozenset({"get"})
    if isinstance(t, Get):
        return frozenset({"get"}) if p is OUTPUT else frozenset({"put"})
    if isinstance(t, Tensor):
        return frozenset({"fork"}) if p is OUTPUT else frozenset({"split"})
    if isinstance(t, Par):
        return frozenset({"split"}) if p is OUTPUT else frozenset({"fork"})
    if isinstance(t, NegT):
        return frozenset({"neg", "|=|"})
    if isinstance(t, ProtoApp):
        return frozenset({"hput"}) if p is OUTPUT else frozenset({"hcase"})
    if isinstance(t, CoprotoApp):
        return frozenset({"hcase"}) if p is OUTPUT else frozenset({"hput"})
    raise ValueError(f"allowed_commands on non-ground type {t!r}")


def unfold_handle(decl: ProtocolDecl, handle: str, app: ChanType) -> ChanType:
    """Expand `handle` of `decl` at the application `app`: sequential
    parameters are replaced by the application's arguments and the state
    variable by `app` itself (iso-recursive unfolding)."""
    h = decl.handle(handle)
    if h is None:
        raise UnknownHandle(f"{decl.name} has no handle {handle}")
    args = app.args if isinstance(app, (ProtoApp, CoprotoApp)) else ()
    if len(args) != len(decl.seq_params):
        raise ValueError(f"{decl.name} expects {len(decl.seq_params)} "
                         f"argument(s), got {len(args)}")
    seq_map = dict(zip(decl.seq_params, args))

    def subst(t):
        k = type(t)
        if k is SeqVar:
            return seq_map.get(t.name, t)
        if k is StateVar:
            return app if t.name == decl.state_var else t
        return map_type(t, subst)
    return subst(h.body)


# ---------------------------------------------------------------------------
# expressions

@dataclass
class IntLit:
    value: int
    pos: Pos = pos_field()


@dataclass
class CharLit:
    value: str
    pos: Pos = pos_field()


@dataclass
class StringLit:
    value: str
    pos: Pos = pos_field()


@dataclass
class BoolLit:
    value: bool
    pos: Pos = pos_field()


@dataclass
class VarRef:
    name: str
    pos: Pos = pos_field()


@dataclass
class StoreOf:
    """`store(name)` or `store(proc ... )` with an inline definition."""
    target: Union[str, "ProcDef"]
    pos: Pos = pos_field()


Expr = Union[IntLit, CharLit, StringLit, BoolLit, VarRef, StoreOf]


# ---------------------------------------------------------------------------
# process commands

@dataclass
class PutVal:
    expr: Expr
    chan: str | None
    pos: Pos = pos_field()


@dataclass
class GetVal:
    binder: str
    chan: str | None
    pos: Pos = pos_field()


@dataclass
class HPut:
    handle: str
    chan: str | None
    pos: Pos = pos_field()


@dataclass
class HCaseArm:
    handle: str
    body: tuple["Command", ...]
    pos: Pos = pos_field()


@dataclass
class HCase:
    chan: str | None
    arms: tuple[HCaseArm, ...]
    pos: Pos = pos_field()


@dataclass
class Close:
    chan: str | None
    pos: Pos = pos_field()


@dataclass
class Halt:
    chan: str | None
    pos: Pos = pos_field()


@dataclass
class ForkArm:
    name: str
    body: tuple["Command", ...]
    pos: Pos = pos_field()


@dataclass
class Fork:
    chan: str | None
    arms: tuple[ForkArm, ForkArm]
    pos: Pos = pos_field()


@dataclass
class Split:
    chan: str | None
    left: str
    right: str
    pos: Pos = pos_field()


@dataclass
class Plug:
    branches: tuple[tuple["Command", ...], ...]
    pos: Pos = pos_field()


@dataclass
class RaceArm:
    chan: str
    body: tuple["Command", ...]
    pos: Pos = pos_field()


@dataclass
class Race:
    arms: tuple[RaceArm, ...]
    pos: Pos = pos_field()


@dataclass
class Call:
    callee: str
    seq_args: tuple[Expr, ...]
    in_chans: tuple[str, ...]
    out_chans: tuple[str, ...]
    pos: Pos = pos_field()

    @property
    def chan_args(self) -> tuple[str, ...]:
        # The section split at a call site is documentation; channel
        # arguments bind to the callee's channel parameters in order.
        return self.in_chans + self.out_chans


@dataclass
class Use:
    stored: Expr
    seq_args: tuple[Expr, ...]
    in_chans: tuple[str, ...]
    out_chans: tuple[str, ...]
    pos: Pos = pos_field()

    @property
    def chan_args(self) -> tuple[str, ...]:
        return self.in_chans + self.out_chans


@dataclass
class Link:
    left: str
    right: str
    pos: Pos = pos_field()


@dataclass
class NegIntro:
    chan: str
    fresh: str
    pos: Pos = pos_field()


@dataclass
class OnDo:
    """`on ch do ...`: sugar that supplies the channel argument to every
    command in its block."""
    chan: str
    body: tuple["Command", ...]
    pos: Pos = pos_field()


Command = Union[PutVal, GetVal, HPut, HCase, Close, Halt, Fork, Split,
                Plug, Race, Call, Use, Link, NegIntro, OnDo]

Body = tuple[Command, ...]


# ---------------------------------------------------------------------------
# command traversal: the one place that knows which commands nest bodies and
# hold expressions.

def sub_bodies(cmd) -> tuple[Body, ...]:
    """The command sequences nested directly inside `cmd`, in order."""
    k = type(cmd)
    if k is HCase or k is Fork or k is Race:
        return tuple(a.body for a in cmd.arms)
    if k is Plug:
        return cmd.branches
    if k is OnDo:
        return (cmd.body,)
    return ()


def map_command(cmd, body, expr):
    """`cmd` rebuilt with `body` applied to each of its `sub_bodies` and
    `expr` to each expression it holds, in source order.  Commands with
    neither come back unchanged."""
    k = type(cmd)
    if k is PutVal:
        return PutVal(expr(cmd.expr), cmd.chan, cmd.pos)
    if k is Call:
        return Call(cmd.callee, tuple(map(expr, cmd.seq_args)),
                    cmd.in_chans, cmd.out_chans, cmd.pos)
    if k is Use:
        return Use(expr(cmd.stored), tuple(map(expr, cmd.seq_args)),
                   cmd.in_chans, cmd.out_chans, cmd.pos)
    if k is HCase:
        return HCase(cmd.chan, tuple(HCaseArm(a.handle, body(a.body), a.pos)
                                     for a in cmd.arms), cmd.pos)
    if k is Fork:
        return Fork(cmd.chan, tuple(ForkArm(a.name, body(a.body), a.pos)
                                    for a in cmd.arms), cmd.pos)
    if k is Race:
        return Race(tuple(RaceArm(a.chan, body(a.body), a.pos)
                          for a in cmd.arms), cmd.pos)
    if k is Plug:
        return Plug(tuple(map(body, cmd.branches)), cmd.pos)
    if k is OnDo:
        return OnDo(cmd.chan, body(cmd.body), cmd.pos)
    return cmd


# ---------------------------------------------------------------------------
# declarations and programs

@dataclass
class ProcDef:
    name: str
    signature: ProcSignature | None
    seq_params: tuple[str, ...]
    in_params: tuple[str, ...]
    out_params: tuple[str, ...]
    body: Body
    pos: Pos = pos_field()

    @property
    def chan_params(self) -> tuple[str, ...]:
        return self.in_params + self.out_params


Decl = Union[ProcDef, ProtocolDecl]


@dataclass
class SourceProgram:
    decls: tuple[Decl, ...]

    @property
    def procs(self) -> dict[str, ProcDef]:
        return {d.name: d for d in self.decls if isinstance(d, ProcDef)}

    @property
    def protocol_decls(self) -> dict[str, ProtocolDecl]:
        return {d.name: d for d in self.decls if isinstance(d, ProtocolDecl)}
