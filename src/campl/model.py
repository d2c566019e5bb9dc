"""Core data model shared by the parser, checker, and runtime.

Holds the channel and sequential type grammars, the process AST, the
per-type/per-polarity command permission matrix, and the unfolding rule
that expands a protocol or coprotocol handle into a concrete channel type.

Every node is a `record`, immutable by convention: once `parse_program`
has returned, nothing assigns to a field of a type, signature, declaration
or command (the parser's resolver sets the types it recorded in place
before it returns).  So nodes are safe to share between any number of
checks or machine runs, and rewrites share the subtrees they leave
unchanged.  Type nodes and `Pos` hash by value; commands and declarations
compare by value and are unhashable.  Command and expression nodes, one
per command or operand, are slotted: no per-instance `__dict__`, so each
takes less memory and each field read is a slot lookup.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter, is_
from typing import Union


# ---------------------------------------------------------------------------
# records: the classes of plain fields every module builds its values from

# No default given; as a parameter's default, no argument given.
_UNSET = object()


class Field:
    """A record field's `default`, or the `factory` called for a fresh
    one per instance.  A `hidden` field stays out of `==`, `hash` and
    `repr`.  A `derived` field is hidden and no parameter: construction
    sets it to `derived`, a source expression over the parameters."""

    def __init__(self, default=_UNSET, *, factory=None, hidden=False,
                 derived=None):
        self.default, self.factory, self.derived = default, factory, derived
        self.hidden = hidden or derived is not None


def record(cls=None, *, slots=False, eq=True, hash=False, pos=False):
    """`cls` with an `__init__` that takes its annotated fields, all but
    the derived ones, by position or keyword; `pos` adds a last one, the
    hidden source position `pos: Pos = NO_POS` of a syntax node.  With
    `eq` it equals a record of its own class whose shown fields are
    equal, and is unhashable unless `hash` hashes those fields; without
    `eq` it keeps object identity.  `slots` rebuilds the class with one
    slot per field.  These methods come from one exec'd source, each a
    single frame."""
    if cls is None:
        return lambda cls: record(cls, slots=slots, eq=eq, hash=hash,
                                  pos=pos)
    if pos:
        cls.__annotations__["pos"] = "Pos"
        cls.pos = Field(NO_POS, hidden=True)
    names = list(cls.__annotations__)
    env, params, sets, shown = {"_UNSET": _UNSET}, ["self"], [], []
    for name in names:
        spec = cls.__dict__.get(name, _UNSET)
        if type(spec) is not Field:
            spec = Field(spec)
        elif not slots:
            delattr(cls, name)
        value = spec.derived or name
        if spec.factory:
            env[f"_f_{name}"] = spec.factory
            value = f"_f_{name}() if {name} is _UNSET else {name}"
            params.append(f"{name}=_UNSET")
        elif spec.default is not _UNSET:
            env[f"_d_{name}"] = spec.default
            params.append(f"{name}=_d_{name}")
        elif not spec.derived:
            params.append(name)
        sets.append(f" self.{name} = {value}")
        if not spec.hidden:
            shown.append(name)
    keys = "".join(f"self.{k}," for k in shown)
    src = [f"def __init__({', '.join(params)}):", *sets, " pass"]
    if eq:
        src += ["def __eq__(self, other):",
                " if other.__class__ is self.__class__:",
                f"  return ({keys}) == ({keys.replace('self.', 'other.')})",
                " return NotImplemented"]
    if hash:
        src.append(f"def __hash__(self): return hash(({keys}))")
    exec("\n".join(src), env)
    body = {"__init__": env["__init__"], "__repr__": _record_repr,
            "__match_args__": tuple(p.partition("=")[0] for p in params[1:]),
            "_shown": tuple(shown)}
    if eq:
        body.update(__eq__=env["__eq__"], __hash__=env.get("__hash__"))
    if not slots:
        for k, v in body.items():
            setattr(cls, k, v)
        return cls
    kept = {k: v for k, v in cls.__dict__.items()
            if k not in names and k not in ("__dict__", "__weakref__")}
    return type(cls)(cls.__name__, cls.__bases__, kept | body | {
        "__slots__": tuple(names), "__qualname__": cls.__qualname__})


def _record_repr(self) -> str:
    """The text a dataclass's `repr` prints: `Name(field=value, ...)`."""
    shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._shown)
    return f"{type(self).__qualname__}({shown})"


# ---------------------------------------------------------------------------
# source positions

@record(slots=True, hash=True)
class Pos:
    line: int = 0
    col: int = 0


NO_POS = Pos()


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


@record(hash=True)
class BaseSeq:
    """A built-in atomic sequential type (Int, Char, Bool, [Char])."""
    name: str

    def __str__(self) -> str:
        return self.name


INT = BaseSeq("Int")
CHAR = BaseSeq("Char")
BOOL = BaseSeq("Bool")
STRING = BaseSeq("[Char]")     # `String` in source is sugar for `[Char]`


@record(hash=True)
class StoreType(_Compound):
    """Type of a stored process; `sig` is the signature it must be used at."""
    sig: "ProcSignature"


@record(hash=True)
class SeqVar:
    """Sequential type parameter of a protocol/coprotocol declaration."""
    name: str

    def __str__(self) -> str:
        return self.name


@record(hash=True)
class SeqUVar:
    """Sequential unification variable; never survives into checked output."""
    uid: int

    def __str__(self) -> str:
        return f"?s{self.uid}"


SeqType = Union[BaseSeq, StoreType, SeqVar, SeqUVar]


# ---------------------------------------------------------------------------
# channel types

@record(hash=True)
class TopBot:
    def __str__(self) -> str:
        return "TopBot"


TOPBOT = TopBot()


@record(hash=True)
class Put(_Compound):
    msg: SeqType
    rest: "ChanType"


@record(hash=True)
class Get(_Compound):
    msg: SeqType
    rest: "ChanType"


@record(hash=True)
class Tensor(_Compound):
    left: "ChanType"
    right: "ChanType"


@record(hash=True)
class Par(_Compound):
    left: "ChanType"
    right: "ChanType"


@record(hash=True)
class NegT(_Compound):
    inner: "ChanType"


@record(hash=True)
class ProtoApp(_Compound):
    """Application of a named protocol to sequential type arguments."""
    name: str
    args: tuple[SeqType, ...] = ()


@record(hash=True)
class CoprotoApp(_Compound):
    name: str
    args: tuple[SeqType, ...] = ()


@record(hash=True)
class StateVar:
    """Recursion variable inside a protocol/coprotocol declaration body."""
    name: str

    def __str__(self) -> str:
        return self.name


@record(hash=True)
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

@record(hash=True)
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


@record(pos=True)
class HandleDef:
    name: str
    body: ChanType


@record(pos=True)
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
    for h in decl.handles:          # a repeated name: the first one wins
        if h.name == handle:
            break
    else:
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

@record(slots=True, pos=True)
class IntLit:
    value: int


@record(slots=True, pos=True)
class CharLit:
    value: str


@record(slots=True, pos=True)
class StringLit:
    value: str


@record(slots=True, pos=True)
class BoolLit:
    value: bool


@record(slots=True, pos=True)
class VarRef:
    name: str


@record(slots=True, pos=True)
class StoreOf:
    """`store(name)` or `store(proc ... )` with an inline definition."""
    target: Union[str, "ProcDef"]


Expr = Union[IntLit, CharLit, StringLit, BoolLit, VarRef, StoreOf]


# ---------------------------------------------------------------------------
# process commands

@record(slots=True, pos=True)
class PutVal:
    expr: Expr
    chan: str | None


@record(slots=True, pos=True)
class GetVal:
    binder: str
    chan: str | None


@record(slots=True, pos=True)
class HPut:
    handle: str
    chan: str | None


@record(slots=True, pos=True)
class Arm:
    """One arm of an hcase, fork or race: its handle, the channel name it
    binds, or the channel it races on, and its body."""
    label: str
    body: tuple["Command", ...]


@record(slots=True, pos=True)
class HCase:
    chan: str | None
    arms: tuple[Arm, ...]


@record(slots=True, pos=True)
class Close:
    chan: str | None


@record(slots=True, pos=True)
class Halt:
    chan: str | None


@record(slots=True, pos=True)
class Fork:
    chan: str | None
    arms: tuple[Arm, Arm]


@record(slots=True, pos=True)
class Split:
    chan: str | None
    left: str
    right: str


@record(slots=True, pos=True)
class Plug:
    branches: tuple[tuple["Command", ...], ...]


@record(slots=True, pos=True)
class Race:
    arms: tuple[Arm, ...]


@record(slots=True, pos=True)
class Call:
    callee: str
    seq_args: tuple[Expr, ...]
    in_chans: tuple[str, ...]
    out_chans: tuple[str, ...]
    # The section split at a call site is documentation; channel
    # arguments bind to the callee's channel parameters in order.  Set
    # once per node, as are `Use.chan_args` and `ProcDef.chan_params`.
    chan_args: tuple[str, ...] = Field(derived="in_chans + out_chans")


@record(slots=True, pos=True)
class Use:
    stored: Expr
    seq_args: tuple[Expr, ...]
    in_chans: tuple[str, ...]
    out_chans: tuple[str, ...]
    chan_args: tuple[str, ...] = Field(derived="in_chans + out_chans")


@record(slots=True, pos=True)
class Link:
    left: str
    right: str


@record(slots=True, pos=True)
class NegIntro:
    chan: str
    fresh: str


@record(slots=True, pos=True)
class OnDo:
    """`on ch do ...`: sugar that supplies the channel argument to every
    command in its block."""
    chan: str
    body: tuple["Command", ...]


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
        old = list(map(attrgetter("body"), cmd.arms))
        new = list(map(body, old))
        if same_items(new, old):
            return cmd
        arms = tuple(map(Arm, map(attrgetter("label"), cmd.arms), new,
                         map(attrgetter("pos"), cmd.arms)))
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

@record(pos=True)
class ProcDef:
    name: str
    signature: ProcSignature | None
    seq_params: tuple[str, ...]
    in_params: tuple[str, ...]
    out_params: tuple[str, ...]
    body: Body
    chan_params: tuple[str, ...] = Field(derived="in_params + out_params")


Decl = Union[ProcDef, ProtocolDecl]


@record
class SourceProgram:
    decls: tuple[Decl, ...]

    @property
    def procs(self) -> dict[str, ProcDef]:
        return {d.name: d for d in self.decls if isinstance(d, ProcDef)}
