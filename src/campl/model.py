"""Core data model shared by the parser, checker, and runtime.

Holds the channel and sequential type grammars, the process AST, the
per-type/per-polarity command permission matrix, and the unfolding rule
that expands a protocol or coprotocol handle into a concrete channel type.

Every node here is an immutable value by convention, not by `frozen=True`:
once `parse_program` has returned, nothing assigns to a field of a type,
signature, declaration or command (the parser's resolver sets the types it
recorded in place before it returns).  So nodes are safe to share between
any number of checks or machine runs, and rewrites share the subtrees they
leave unchanged.  Type nodes hash by value (`unsafe_hash=True`), as a
frozen dataclass would; a frozen `__init__` costs about five times as
much, and the checker builds type nodes as it infers.  Command and
expression nodes, of which a program has one per command or operand, are
`slots=True` dataclasses: no per-instance `__dict__`, so each takes less
memory and each field read is a slot lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import is_
from typing import Union


# ---------------------------------------------------------------------------
# source positions

@dataclass(slots=True, unsafe_hash=True)
class Pos:
    line: int = 0
    col: int = 0


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

class _Compound:
    """A type with parts, sequential or channel: it prints through
    `render_type`, which nests without recursion."""

    def __str__(self) -> str:
        return render_type(self)


@dataclass(unsafe_hash=True)
class BaseSeq:
    """A built-in atomic sequential type (Int, Char, Bool, [Char])."""
    name: str

    def __str__(self) -> str:
        return self.name


INT = BaseSeq("Int")
CHAR = BaseSeq("Char")
BOOL = BaseSeq("Bool")
STRING = BaseSeq("[Char]")     # `String` in source is sugar for `[Char]`


@dataclass(unsafe_hash=True)
class StoreType(_Compound):
    """Type of a stored process; `sig` is the signature it must be used at."""
    sig: "ProcSignature"


@dataclass(unsafe_hash=True)
class SeqVar:
    """Sequential type parameter of a protocol/coprotocol declaration."""
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(unsafe_hash=True)
class SeqUVar:
    """Sequential unification variable; never survives into checked output."""
    uid: int

    def __str__(self) -> str:
        return f"?s{self.uid}"


SeqType = Union[BaseSeq, StoreType, SeqVar, SeqUVar]


# ---------------------------------------------------------------------------
# channel types

@dataclass(unsafe_hash=True)
class TopBot:
    def __str__(self) -> str:
        return "TopBot"


TOPBOT = TopBot()


@dataclass(unsafe_hash=True)
class Put(_Compound):
    msg: SeqType
    rest: "ChanType"


@dataclass(unsafe_hash=True)
class Get(_Compound):
    msg: SeqType
    rest: "ChanType"


@dataclass(unsafe_hash=True)
class Tensor(_Compound):
    left: "ChanType"
    right: "ChanType"


@dataclass(unsafe_hash=True)
class Par(_Compound):
    left: "ChanType"
    right: "ChanType"


@dataclass(unsafe_hash=True)
class NegT(_Compound):
    inner: "ChanType"


@dataclass(unsafe_hash=True)
class ProtoApp(_Compound):
    """Application of a named protocol to sequential type arguments."""
    name: str
    args: tuple[SeqType, ...] = ()


@dataclass(unsafe_hash=True)
class CoprotoApp(_Compound):
    name: str
    args: tuple[SeqType, ...] = ()


@dataclass(unsafe_hash=True)
class StateVar:
    """Recursion variable inside a protocol/coprotocol declaration body."""
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(unsafe_hash=True)
class UVar:
    """Channel-type unification variable used only during inference."""
    uid: int

    def __str__(self) -> str:
        return f"?c{self.uid}"


ChanType = Union[
    TopBot, Put, Get, Tensor, Par, NegT, ProtoApp, CoprotoApp, StateVar, UVar
]


# ---------------------------------------------------------------------------
# process signatures and protocol declarations

@dataclass(unsafe_hash=True)
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


def same_items(new: tuple, old: tuple) -> bool:
    """Whether `new`, a `tuple(map(f, old))`, holds `old`'s own objects.
    The rewrites below map in C, so a nested walk costs no extra stack
    frame per level."""
    return all(map(is_, new, old))


def map_type(t, f):
    """`t` rebuilt with `f` applied to each of its `type_parts`; `t` itself
    when every part comes back unchanged (`is`), as atoms and variables
    always do."""
    k = type(t)
    if k is BaseSeq or k is TopBot:
        return t
    if k is Put or k is Get:
        msg, rest = f(t.msg), f(t.rest)
        return t if msg is t.msg and rest is t.rest else k(msg, rest)
    if k is Tensor or k is Par:
        left, right = f(t.left), f(t.right)
        return t if left is t.left and right is t.right else k(left, right)
    if k is NegT:
        inner = f(t.inner)
        return t if inner is t.inner else NegT(inner)
    if k is ProtoApp or k is CoprotoApp:
        args = tuple(map(f, t.args))
        return t if same_items(args, t.args) else k(t.name, args)
    if k is StoreType:
        sig = map_signature(t.sig, f)
        return t if sig is t.sig else StoreType(sig)
    return t


def map_signature(sig: ProcSignature, f) -> ProcSignature:
    """`sig` with `f` applied to each type; `sig` itself when nothing
    changes."""
    parts = sig.seq_params + sig.in_chans + sig.out_chans
    new = tuple(map(f, parts))
    if same_items(new, parts):
        return sig
    i = len(sig.seq_params)
    j = i + len(sig.in_chans)
    return ProcSignature(new[:i], new[i:j], new[j:])


# ---------------------------------------------------------------------------
# rendering: types print from an explicit stack of pieces, so no depth of
# nesting exhausts Python's.

def render_type(t) -> str:
    return _render([t])


def _render(todo: list) -> str:
    """Concatenate `todo`, strings and types, with each type replaced by
    its text; `todo` is consumed."""
    todo.reverse()
    out = []
    while todo:
        t = todo.pop()
        k = type(t)
        if k is str:
            out.append(t)
            continue
        if k is Put or k is Get:
            pieces = [f"{k.__name__}(", t.msg, "|", t.rest, ")"]
        elif k is Tensor or k is Par:
            pieces = [*_operand(t.left), " (*) " if k is Tensor else " (+) ",
                      *_operand(t.right)]
        elif k is NegT:
            pieces = ["Neg(", t.inner, ")"]
        elif k is ProtoApp or k is CoprotoApp:
            pieces = ([f"{t.name}(", *_commas(t.args), "|)"] if t.args
                      else [t.name])
        elif k is StoreType:
            sig = t.sig
            pieces = ["Store(", *_commas(sig.seq_params), "|",
                      *_commas(sig.in_chans), "=>", *_commas(sig.out_chans),
                      ")"]
        else:
            out.append(str(t))      # an atom
            continue
        pieces.reverse()
        todo += pieces
    return "".join(out)


def _operand(t) -> tuple:
    k = type(t)
    return ("(", t, ")") if k is Tensor or k is Par else (t,)


def _commas(types: tuple) -> list:
    pieces = []
    for t in types:
        pieces += (", ", t)
    return pieces[1:]


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
    # Handle name -> its first definition, for lookups without a scan (a
    # repeated name is a diagnostic, and checking goes on with the first).
    # The resolver sets each `HandleDef.body` in place, so this stays
    # current.
    handle_defs: dict[str, HandleDef] = field(init=False, repr=False,
                                              compare=False)

    def __post_init__(self):
        self.handle_defs = {h.name: h for h in reversed(self.handles)}


# ---------------------------------------------------------------------------
# command permission matrix

class UnknownHandle(Exception):
    pass


# The head constructor each command needs of its channel's type, held at
# OUTPUT and at INPUT: the per-type, per-polarity command matrix.  `|=|`
# is checked by `check_link`, which takes any two ends of one type and
# opposite polarities; its row only lists it among the commands a `Neg`
# channel allows, in diagnostics.
COMMAND_HEADS = {
    "close": (TopBot, TopBot), "halt": (TopBot, TopBot),
    "put": (Put, Get), "get": (Get, Put),
    "fork": (Tensor, Par), "split": (Par, Tensor),
    "hput": (ProtoApp, CoprotoApp), "hcase": (CoprotoApp, ProtoApp),
    "neg": (NegT, NegT), "|=|": (NegT, NegT),
}


def allowed_commands(t: ChanType, p: Polarity) -> frozenset[str]:
    """Which command kinds may act on a channel of type `t` held at
    polarity `p`.  Total over ground channel types."""
    allowed = frozenset(cmd for cmd, heads in COMMAND_HEADS.items()
                        if heads[p is INPUT] is type(t))
    if not allowed:
        raise ValueError(f"allowed_commands on non-ground type {t!r}")
    return allowed


def unfold_handle(decl: ProtocolDecl, handle: str, app: ChanType) -> ChanType:
    """Expand `handle` of `decl` at the application `app`: sequential
    parameters are replaced by the application's arguments and the state
    variable by `app` itself (iso-recursive unfolding)."""
    h = decl.handle_defs.get(handle)
    if h is None:
        raise UnknownHandle(f"{decl.name} has no handle {handle}")
    args = app.args if isinstance(app, (ProtoApp, CoprotoApp)) else ()
    if len(args) != len(decl.seq_params):
        raise ValueError(f"{decl.name} expects {len(decl.seq_params)} "
                         f"argument(s), got {len(args)}")
    return _Unfolding(dict(zip(decl.seq_params, args)), decl.state_var,
                      app)(h.body)


class _Unfolding:
    """A type with sequential parameters replaced through `seq_map` and
    the state variable by `app`.  A callable object rather than a closure:
    a recursive closure is a reference cycle, left for the collector."""

    def __init__(self, seq_map: dict, state_var: str, app: ChanType):
        self.seq_map = seq_map
        self.state_var = state_var
        self.app = app

    def __call__(self, t):
        k = type(t)
        if k is SeqVar:
            return self.seq_map.get(t.name, t)
        if k is StateVar:
            return self.app if t.name == self.state_var else t
        return map_type(t, self)


# ---------------------------------------------------------------------------
# expressions

@dataclass(slots=True)
class IntLit:
    value: int
    pos: Pos = pos_field()


@dataclass(slots=True)
class CharLit:
    value: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class StringLit:
    value: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class BoolLit:
    value: bool
    pos: Pos = pos_field()


@dataclass(slots=True)
class VarRef:
    name: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class StoreOf:
    """`store(name)` or `store(proc ... )` with an inline definition."""
    target: Union[str, "ProcDef"]
    pos: Pos = pos_field()


Expr = Union[IntLit, CharLit, StringLit, BoolLit, VarRef, StoreOf]


# ---------------------------------------------------------------------------
# process commands

@dataclass(slots=True)
class PutVal:
    expr: Expr
    chan: str | None
    pos: Pos = pos_field()


@dataclass(slots=True)
class GetVal:
    binder: str
    chan: str | None
    pos: Pos = pos_field()


@dataclass(slots=True)
class HPut:
    handle: str
    chan: str | None
    pos: Pos = pos_field()


@dataclass(slots=True)
class HCaseArm:
    handle: str
    body: tuple["Command", ...]
    pos: Pos = pos_field()


@dataclass(slots=True)
class HCase:
    chan: str | None
    arms: tuple[HCaseArm, ...]
    pos: Pos = pos_field()


@dataclass(slots=True)
class Close:
    chan: str | None
    pos: Pos = pos_field()


@dataclass(slots=True)
class Halt:
    chan: str | None
    pos: Pos = pos_field()


@dataclass(slots=True)
class ForkArm:
    name: str
    body: tuple["Command", ...]
    pos: Pos = pos_field()


@dataclass(slots=True)
class Fork:
    chan: str | None
    arms: tuple[ForkArm, ForkArm]
    pos: Pos = pos_field()


@dataclass(slots=True)
class Split:
    chan: str | None
    left: str
    right: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class Plug:
    branches: tuple[tuple["Command", ...], ...]
    pos: Pos = pos_field()


@dataclass(slots=True)
class RaceArm:
    chan: str
    body: tuple["Command", ...]
    pos: Pos = pos_field()


@dataclass(slots=True)
class Race:
    arms: tuple[RaceArm, ...]
    pos: Pos = pos_field()


@dataclass(slots=True)
class Call:
    callee: str
    seq_args: tuple[Expr, ...]
    in_chans: tuple[str, ...]
    out_chans: tuple[str, ...]
    pos: Pos = pos_field()
    # The section split at a call site is documentation; channel
    # arguments bind to the callee's channel parameters in order.  Set
    # once per node, as are `Use.chan_args` and `ProcDef.chan_params`.
    chan_args: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.chan_args = self.in_chans + self.out_chans


@dataclass(slots=True)
class Use:
    stored: Expr
    seq_args: tuple[Expr, ...]
    in_chans: tuple[str, ...]
    out_chans: tuple[str, ...]
    pos: Pos = pos_field()
    chan_args: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.chan_args = self.in_chans + self.out_chans


@dataclass(slots=True)
class Link:
    left: str
    right: str
    pos: Pos = pos_field()


@dataclass(slots=True)
class NegIntro:
    chan: str
    fresh: str
    pos: Pos = pos_field()


@dataclass(slots=True)
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

def map_command(cmd, body, expr):
    """`cmd` rebuilt with `body` applied to each command sequence nested
    directly inside it and `expr` to each expression it holds, in source
    order.  `cmd` itself when every part comes back unchanged (`is`), as
    commands with neither always do."""
    k = type(cmd)
    if k is PutVal:
        e = expr(cmd.expr)
        return cmd if e is cmd.expr else PutVal(e, cmd.chan, cmd.pos)
    if k is Call:
        args = tuple(map(expr, cmd.seq_args))
        return cmd if same_items(args, cmd.seq_args) else Call(
            cmd.callee, args, cmd.in_chans, cmd.out_chans, cmd.pos)
    if k is Use:
        stored, args = expr(cmd.stored), tuple(map(expr, cmd.seq_args))
        if stored is cmd.stored and same_items(args, cmd.seq_args):
            return cmd
        return Use(stored, args, cmd.in_chans, cmd.out_chans, cmd.pos)
    if k is HCase or k is Fork or k is Race:
        old = [a.body for a in cmd.arms]
        new = list(map(body, old))
        if same_items(new, old):
            return cmd
        arms = tuple(map(_REARM[k], cmd.arms, new))
        return Race(arms, cmd.pos) if k is Race else k(cmd.chan, arms, cmd.pos)
    if k is Plug:
        branches = tuple(map(body, cmd.branches))
        if same_items(branches, cmd.branches):
            return cmd
        return Plug(branches, cmd.pos)
    if k is OnDo:
        b = body(cmd.body)
        return cmd if b is cmd.body else OnDo(cmd.chan, b, cmd.pos)
    return cmd


# Each command's arm rebuilt with a new body.
_REARM = {
    HCase: lambda a, b: HCaseArm(a.handle, b, a.pos),
    Fork: lambda a, b: ForkArm(a.name, b, a.pos),
    Race: lambda a, b: RaceArm(a.chan, b, a.pos),
}

# Each command whose channel an `on` block may supply, rebuilt on `ch`.
WITH_CHAN = {
    PutVal: lambda c, ch: PutVal(c.expr, ch, c.pos),
    GetVal: lambda c, ch: GetVal(c.binder, ch, c.pos),
    HPut: lambda c, ch: HPut(c.handle, ch, c.pos),
    HCase: lambda c, ch: HCase(ch, c.arms, c.pos),
    Close: lambda c, ch: Close(ch, c.pos),
    Halt: lambda c, ch: Halt(ch, c.pos),
    Fork: lambda c, ch: Fork(ch, c.arms, c.pos),
    Split: lambda c, ch: Split(ch, c.left, c.right, c.pos),
}


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
    chan_params: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.chan_params = self.in_params + self.out_params


Decl = Union[ProcDef, ProtocolDecl]


@dataclass
class SourceProgram:
    decls: tuple[Decl, ...]

    @property
    def procs(self) -> dict[str, ProcDef]:
        return {d.name: d for d in self.decls if isinstance(d, ProcDef)}
