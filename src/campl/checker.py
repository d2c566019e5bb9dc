"""Static checker: linear channel usage under the per-type/per-polarity
command matrix, with full unification-based inference for omitted types.

Checking is deterministic: declarations are visited in file order grouped
by strongly-connected components of the call graph (callees first), fresh
inference variables are numbered in traversal order, and the final error
list is sorted by source position.  Errors accumulate; independent
mistakes in different processes are all reported in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diagnostics as dk
from .diagnostics import CheckFailure, Diagnostic, sort_key
from .elaborate import ExecProgram, free_chans, prepare
from .model import (
    INPUT, OUTPUT, TOPBOT, Body, BoolLit, Call, CharLit, Close,
    CoprotoApp, DeclKind, Expr, Fork, Get, GetVal, Halt, HCase, HPut,
    IntLit, Link, NegIntro, NegT, Par, Plug, Polarity, Pos, ProcDef,
    ProcSignature, ProtoApp, ProtocolDecl, Put, PutVal, Race, SeqType,
    SeqUVar, SourceProgram, Split, StoreOf, StoreType, StringLit, Tensor,
    UVar, Use, VarRef, allowed_commands, map_command, map_signature,
    map_type, type_parts, unfold_handle,
    BOOL, CHAR, INT, STRING,
)
from .services import BUILTIN_DECLS, CONSOLE


_VARS = (UVar, SeqUVar)


class UnifyClash(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} vs {b}")
        self.a = a
        self.b = b


class Unifier:
    """Most-general unification over channel and sequential types, with an
    occurs check so recursion must go through declared protocol names.
    Channel and sequential variables share one numbering and one
    substitution."""

    def __init__(self):
        self.sub: dict[int, object] = {}
        self._next = 0

    def fresh_chan(self) -> UVar:
        self._next += 1
        return UVar(self._next)

    def fresh_seq(self) -> SeqUVar:
        self._next += 1
        return SeqUVar(self._next)

    def resolve(self, t):
        """Follow solved variables from `t` to a constructor or an unsolved
        variable."""
        k = type(t)
        while k is UVar or k is SeqUVar:
            s = self.sub.get(t.uid)
            if s is None:
                break
            t, k = s, type(s)
        return t

    def unify(self, a, b) -> None:
        """Unify two channel types or two sequential types."""
        a = self.resolve(a)
        b = self.resolve(b)
        if a is b or a == b:
            return
        ka, kb = type(a), type(b)
        if ka not in _VARS and kb in _VARS:
            a, b, ka, kb = b, a, kb, ka
        if ka in _VARS:
            if self._occurs(a.uid, b):
                raise UnifyClash(a, self.zonk(b))
            self.sub[a.uid] = b
            return
        if ka is StoreType and kb is StoreType:
            # The flattened parts below cannot tell the sections apart.
            x, y = a.sig, b.sig
            if (len(x.seq_params) != len(y.seq_params)
                    or len(x.in_chans) != len(y.in_chans)
                    or len(x.out_chans) != len(y.out_chans)):
                raise UnifyClash(a, b)
        if ka is kb and getattr(a, "name", None) == \
                getattr(b, "name", None):
            xs, ys = type_parts(a), type_parts(b)
            if len(xs) == len(ys):
                for x, y in zip(xs, ys):
                    self.unify(x, y)
                return
        raise UnifyClash(self.zonk(a), self.zonk(b))

    def _occurs(self, uid: int, t) -> bool:
        """Whether variable `uid` occurs anywhere in `t`, channel and
        sequential components alike."""
        if type(t) in _VARS:
            if t.uid == uid:
                return True
            t = self.sub.get(t.uid)
            return t is not None and self._occurs(uid, t)
        for part in type_parts(t):
            if self._occurs(uid, part):
                return True
        return False

    def zonk(self, t):
        """`t` with every solved variable replaced by its solution."""
        k = type(t)
        while k is UVar or k is SeqUVar:
            s = self.sub.get(t.uid)
            if s is None:
                return t
            t, k = s, type(s)
        return map_type(t, self.zonk)

    def zonk_sig(self, sig: ProcSignature) -> ProcSignature:
        return map_signature(sig, self.zonk)


def has_uvars(t) -> bool:
    if type(t) in _VARS:
        return True
    for part in type_parts(t):
        if has_uvars(part):
            return True
    return False


def mentions_service(t) -> bool:
    """True when the channel-level structure of `t` contains the Console
    service type.  Store payloads are sequential data and do not count."""
    if isinstance(t, CoprotoApp) and t.name == CONSOLE:
        return True
    if isinstance(t, (Put, Get)):
        return mentions_service(t.rest)
    if isinstance(t, (Tensor, Par)):
        return mentions_service(t.left) or mentions_service(t.right)
    if isinstance(t, NegT):
        return mentions_service(t.inner)
    return False


# ---------------------------------------------------------------------------
# protocol registry

class ProtocolTable:
    def __init__(self):
        self.decls: dict[str, ProtocolDecl] = {}
        self.by_handle: dict[str, ProtocolDecl] = {}

    @classmethod
    def build(cls, decls: list[ProtocolDecl],
              errors: list[Diagnostic]) -> "ProtocolTable":
        table = cls()
        for d in BUILTIN_DECLS.values():
            table.decls[d.name] = d
            for h in d.handles:
                table.by_handle[h.name] = d
        for d in decls:
            if d.name in table.decls:
                errors.append(Diagnostic(
                    dk.HANDLE_DUPLICATE, d.pos,
                    f"declaration name {d.name!r} is already taken"))
                continue
            table.decls[d.name] = d
            for h in d.handles:
                if h.name in table.by_handle:
                    other = table.by_handle[h.name].name
                    errors.append(Diagnostic(
                        dk.HANDLE_DUPLICATE, h.pos,
                        f"handle name {h.name!r} is already used by "
                        f"{other}; handle names must be globally unique"))
                    continue
                table.by_handle[h.name] = d
            for h in d.handles:
                if mentions_service(h.body):
                    errors.append(Diagnostic(
                        dk.ILLEGAL_COMMAND, h.pos,
                        f"handle {h.name!r} mentions the service type "
                        f"{CONSOLE}; service channels cannot be declared"))
        return table

    def decl_of_handle(self, handle: str) -> ProtocolDecl | None:
        return self.by_handle.get(handle)


# ---------------------------------------------------------------------------
# checked-program artifacts

@dataclass
class ChanEntry:
    type: object
    pol: Polarity


@dataclass
class PlugSite:
    proc: str
    pos: Pos
    chan_types: dict[str, object]
    chan_polarity: dict[str, tuple[int, int]]   # name -> (output br, input br)


@dataclass
class ForkSite:
    proc: str
    pos: Pos
    components: tuple[object, object]


@dataclass
class ArmSite:
    proc: str
    pos: Pos
    kind: str                       # hcase | race | fork
    consumed: tuple[frozenset[str], ...]


@dataclass
class Occurrence:
    proc: str
    pos: Pos
    chan: str
    type: object
    polarity: Polarity
    command: str


@dataclass
class CheckedProc:
    name: str
    signature: ProcSignature
    definition: ProcDef


@dataclass
class TypedProgram:
    """Checker output: solved signatures plus per-site annotations."""
    source: SourceProgram
    exec_program: ExecProgram
    procs: dict[str, CheckedProc]
    protocols: ProtocolTable
    plug_sites: list[PlugSite]
    fork_sites: list[ForkSite]
    arm_sites: list[ArmSite]
    occurrences: list[Occurrence]

    def signature_of(self, name: str) -> ProcSignature:
        return self.procs[name].signature


class _BodyError(Exception):
    """Aborts the current body after its diagnostic has been recorded."""


_TERMINATED = "terminated"
_OPEN = "open"


@dataclass
class _SigInfo:
    sig: ProcSignature
    explicit: bool


class Checker:
    def __init__(self, src: SourceProgram):
        self.src = src
        self.exec_program = prepare(src)
        self.errors: list[Diagnostic] = []
        self.uni = Unifier()
        self.table = ProtocolTable.build(
            [d for d in src.decls if isinstance(d, ProtocolDecl)],
            self.errors)
        self.sigs: dict[str, _SigInfo] = {}
        self.plug_sites: list[PlugSite] = []
        self.fork_sites: list[ForkSite] = []
        self.arm_sites: list[ArmSite] = []
        self.occurrences: list[Occurrence] = []

    # -- driver ---------------------------------------------------------

    def run(self) -> TypedProgram:
        procs = self.exec_program.procs
        order = _scc_order(procs)
        for group in order:
            for name in group:
                self.sigs[name] = self._initial_sig(procs[name])
            for name in group:
                try:
                    self._check_proc(procs[name])
                except _BodyError:
                    pass
        # Signatures may only become ground once callers constrain them
        # (the peer across a plug often pins a message type), so audit
        # completeness after the whole program has been visited.
        for name in procs:
            self._finalize_sig(procs[name])
        self._check_run_shape()
        self._audit_created_types()
        if self.errors:
            self.errors.sort(key=sort_key)
            raise CheckFailure(self.errors)
        checked = {
            name: CheckedProc(name, self.uni.zonk_sig(self.sigs[name].sig),
                              procs[name])
            for name in procs
        }
        self._zonk_sites()
        return TypedProgram(self.src, self.exec_program, checked, self.table,
                            self.plug_sites, self.fork_sites, self.arm_sites,
                            self.occurrences)

    def _initial_sig(self, d: ProcDef) -> _SigInfo:
        if d.signature is not None:
            sig = d.signature
            if (len(sig.seq_params) != len(d.seq_params)
                    or len(sig.in_chans) != len(d.in_params)
                    or len(sig.out_chans) != len(d.out_params)):
                self._diag(dk.ARITY_MISMATCH, d.pos,
                           f"signature of {d.name!r} lists "
                           f"{len(sig.seq_params)}|{len(sig.in_chans)}"
                           f"=>{len(sig.out_chans)} but the context line "
                           f"binds {len(d.seq_params)}|{len(d.in_params)}"
                           f"=>{len(d.out_params)}")
                sig = ProcSignature(
                    tuple(self.uni.fresh_seq() for _ in d.seq_params),
                    tuple(self.uni.fresh_chan() for _ in d.in_params),
                    tuple(self.uni.fresh_chan() for _ in d.out_params))
                return _SigInfo(sig, False)
            return _SigInfo(sig, True)
        sig = ProcSignature(
            tuple(self.uni.fresh_seq() for _ in d.seq_params),
            tuple(self.uni.fresh_chan() for _ in d.in_params),
            tuple(self.uni.fresh_chan() for _ in d.out_params))
        return _SigInfo(sig, False)

    def _finalize_sig(self, d: ProcDef) -> None:
        solved = self.uni.zonk_sig(self.sigs[d.name].sig)
        unsolved = [t for t in solved.seq_params if has_uvars(t)]
        unsolved += [t for t in solved.in_chans + solved.out_chans
                     if has_uvars(t)]
        if unsolved:
            self._diag(dk.UNIFICATION_FAILURE, d.pos,
                       f"could not infer a complete signature for "
                       f"{d.name!r}; underdetermined type(s): "
                       f"{', '.join(str(t) for t in unsolved)}")

    def _check_run_shape(self) -> None:
        d = self.exec_program.procs.get("run")
        if d is None:
            return
        sig = self.uni.zonk_sig(self.sigs["run"].sig)
        if sig.seq_params:
            self._diag(dk.ILLEGAL_COMMAND, d.pos,
                       "run cannot take sequential parameters")
        if sig.out_chans:
            self._diag(dk.ILLEGAL_COMMAND, d.pos,
                       "run cannot take output channels; service channels "
                       "sit at run's input side")
        consoles = [t for t in sig.in_chans
                    if isinstance(t, CoprotoApp) and t.name == CONSOLE]
        bad = [t for t in sig.in_chans
               if not (isinstance(t, CoprotoApp) and t.name == CONSOLE)]
        for t in bad:
            if has_uvars(t):
                continue   # already reported as underdetermined
            self._diag(dk.ILLEGAL_COMMAND, d.pos,
                       f"run may hold only service channels, found {t}")
        if len(consoles) > 1:
            self._diag(dk.ILLEGAL_COMMAND, d.pos,
                       "run may hold at most one Console channel")

    def _audit_created_types(self) -> None:
        for site in self.plug_sites:
            for name, t in site.chan_types.items():
                if mentions_service(self.uni.zonk(t)):
                    self._diag(dk.ILLEGAL_COMMAND, site.pos,
                               f"plug creates channel {name!r} carrying the "
                               f"service type {CONSOLE}; only run receives "
                               f"service channels", channel=name)
        for site in self.fork_sites:
            for t in site.components:
                if mentions_service(self.uni.zonk(t)):
                    self._diag(dk.ILLEGAL_COMMAND, site.pos,
                               f"fork creates a channel carrying the "
                               f"service type {CONSOLE}")

    def _zonk_sites(self) -> None:
        for site in self.plug_sites:
            site.chan_types = {n: self.uni.zonk(t)
                               for n, t in site.chan_types.items()}
        for i, site in enumerate(self.fork_sites):
            self.fork_sites[i] = ForkSite(
                site.proc, site.pos,
                tuple(self.uni.zonk(t) for t in site.components))
        for o in self.occurrences:
            o.type = self.uni.zonk(o.type)

    # -- per-process checking --------------------------------------------

    def _check_proc(self, d: ProcDef) -> None:
        sig = self.sigs[d.name].sig
        seq_ctx = dict(zip(d.seq_params, sig.seq_params))
        chan_ctx: dict[str, ChanEntry] = {}
        for name, t in zip(d.in_params, sig.in_chans):
            chan_ctx[name] = ChanEntry(t, INPUT)
        for name, t in zip(d.out_params, sig.out_chans):
            chan_ctx[name] = ChanEntry(t, OUTPUT)
        body = _BodyChecker(self, d.name)
        body.require_complete(d.body, seq_ctx, chan_ctx, d.pos)

    def _diag(self, kind: str, pos: Pos, message: str,
              channel: str | None = None,
              chan_type: str | None = None) -> None:
        self.errors.append(Diagnostic(kind, pos, message, channel,
                                      chan_type))


class _BodyChecker:
    def __init__(self, checker: Checker, proc: str):
        self.c = checker
        self.uni = checker.uni
        self.proc = proc

    # Records a diagnostic and aborts the current body.
    def fail(self, kind: str, pos: Pos, message: str,
             channel: str | None = None, chan_type=None):
        rendered = None if chan_type is None else str(
            self.uni.zonk(chan_type))
        self.c._diag(kind, pos, message, channel, rendered)
        raise _BodyError()

    def require_complete(self, body: Body, seq_ctx, chan_ctx,
                         pos: Pos) -> None:
        state, ctx = self.check_body(body, seq_ctx, chan_ctx)
        if state is _OPEN and ctx:
            names = ", ".join(sorted(ctx))
            self.fail(dk.LINEARITY_DROP, body[-1].pos if body else pos,
                      f"body ends with live channel(s): {names}",
                      channel=sorted(ctx)[0])

    # -- body loop --------------------------------------------------------

    def check_body(self, body: Body, seq_ctx: dict, chan_ctx: dict):
        """Returns (state, ctx): state is `terminated` when the body ended
        with a terminator, else `open` with the remaining live context."""
        consumed_all = False
        i = 0
        n = len(body)
        while i < n:
            cmd = body[i]
            last = i == n - 1
            state = self.check_command(cmd, seq_ctx, chan_ctx, last)
            if state is _TERMINATED:
                if not last:
                    self.fail(dk.HALT_NOT_LAST, body[i + 1].pos,
                              "unreachable command after a terminating "
                              "command")
                consumed_all = True
            i += 1
        if consumed_all:
            return _TERMINATED, None
        return _OPEN, chan_ctx

    def check_command(self, cmd, seq_ctx, chan_ctx, last: bool):
        if isinstance(cmd, PutVal):
            entry = self.lookup(cmd.chan, cmd.pos, chan_ctx, "put")
            head = self.expect_head(cmd.chan, entry, "put", cmd.pos)
            vt = self.expr_type(cmd.expr, seq_ctx)
            self.unify_seq_or_fail(vt, head.msg, cmd.pos, cmd.chan)
            self.advance(cmd.chan, chan_ctx, head.rest)
            self.note(cmd.pos, cmd.chan, entry, "put")
            return _OPEN
        if isinstance(cmd, GetVal):
            entry = self.lookup(cmd.chan, cmd.pos, chan_ctx, "get")
            head = self.expect_head(cmd.chan, entry, "get", cmd.pos)
            seq_ctx[cmd.binder] = head.msg
            self.advance(cmd.chan, chan_ctx, head.rest)
            self.note(cmd.pos, cmd.chan, entry, "get")
            return _OPEN
        if isinstance(cmd, HPut):
            return self.check_hput(cmd, seq_ctx, chan_ctx)
        if isinstance(cmd, HCase):
            return self.check_hcase(cmd, seq_ctx, chan_ctx, last)
        if isinstance(cmd, Close):
            entry = self.lookup(cmd.chan, cmd.pos, chan_ctx, "close")
            self.expect_topbot(cmd.chan, entry, "close", cmd.pos)
            del chan_ctx[cmd.chan]
            self.note(cmd.pos, cmd.chan, entry, "close")
            # Closing the last live channel may end the body.
            return _TERMINATED if (last and not chan_ctx) else _OPEN
        if isinstance(cmd, Halt):
            entry = self.lookup(cmd.chan, cmd.pos, chan_ctx, "halt")
            self.expect_topbot(cmd.chan, entry, "halt", cmd.pos)
            del chan_ctx[cmd.chan]
            if chan_ctx:
                names = ", ".join(sorted(chan_ctx))
                self.fail(dk.LINEARITY_DROP, cmd.pos,
                          f"halt on {cmd.chan!r} while other channel(s) are "
                          f"still live: {names}", channel=cmd.chan)
            self.note(cmd.pos, cmd.chan, entry, "halt")
            return _TERMINATED
        if isinstance(cmd, Fork):
            return self.check_fork(cmd, seq_ctx, chan_ctx)
        if isinstance(cmd, Split):
            return self.check_split(cmd, seq_ctx, chan_ctx)
        if isinstance(cmd, Plug):
            return self.check_plug(cmd, seq_ctx, chan_ctx)
        if isinstance(cmd, Race):
            return self.check_race(cmd, seq_ctx, chan_ctx, last)
        if isinstance(cmd, Call):
            return self.check_call(cmd, seq_ctx, chan_ctx)
        if isinstance(cmd, Use):
            return self.check_use(cmd, seq_ctx, chan_ctx)
        if isinstance(cmd, Link):
            return self.check_link(cmd, chan_ctx)
        if isinstance(cmd, NegIntro):
            return self.check_neg(cmd, chan_ctx)
        raise TypeError(f"unhandled command {type(cmd).__name__}")

    # -- helpers ----------------------------------------------------------

    def lookup(self, chan: str | None, pos: Pos, chan_ctx, command: str
               ) -> ChanEntry:
        if chan is None:
            self.fail(dk.ILLEGAL_COMMAND, pos,
                      f"{command} without a channel outside an 'on' block")
        entry = chan_ctx.get(chan)
        if entry is None:
            self.fail(dk.LINEARITY_REUSE, pos,
                      f"channel {chan!r} is not live here (already consumed "
                      f"or never bound)", channel=chan)
        return entry

    def note(self, pos: Pos, chan: str, entry: ChanEntry,
             command: str) -> None:
        self.c.occurrences.append(Occurrence(
            self.proc, pos, chan, entry.type, entry.pol, command))

    def advance(self, chan: str, chan_ctx, new_type) -> None:
        chan_ctx[chan] = ChanEntry(new_type, chan_ctx[chan].pol)

    def legality(self, chan: str, entry: ChanEntry, command: str,
                 pos: Pos, resolved) -> None:
        allowed = allowed_commands(resolved, entry.pol)
        if command in allowed:
            return
        other = allowed_commands(resolved, entry.pol.flipped())
        if command in other:
            self.fail(dk.POLARITY_VIOLATION, pos,
                      f"cannot {command} on {chan!r}: its type {resolved} "
                      f"at polarity {entry.pol} only allows "
                      f"{', '.join(sorted(allowed))}",
                      channel=chan, chan_type=resolved)
        self.fail(dk.ILLEGAL_COMMAND, pos,
                  f"cannot {command} on {chan!r}: its type is {resolved} "
                  f"(allows {', '.join(sorted(allowed))} at {entry.pol})",
                  channel=chan, chan_type=resolved)

    def expect_head(self, chan: str, entry: ChanEntry, command: str,
                    pos: Pos):
        """Force the channel's head to the value-message constructor that
        makes `command` legal at the entry's polarity."""
        want_put = (command == "put") == (entry.pol is OUTPUT)
        resolved = self.uni.resolve(entry.type)
        if isinstance(resolved, UVar):
            head = (Put if want_put else Get)(self.uni.fresh_seq(),
                                              self.uni.fresh_chan())
            self.uni.unify(resolved, head)
            return head
        self.legality(chan, entry, command, pos, resolved)
        return resolved   # Put or Get with the right orientation

    def expect_topbot(self, chan: str, entry: ChanEntry, command: str,
                      pos: Pos) -> None:
        resolved = self.uni.resolve(entry.type)
        if isinstance(resolved, UVar):
            self.uni.unify(resolved, TOPBOT)
            return
        self.legality(chan, entry, command, pos, resolved)

    def unify_or_fail(self, a, b, pos: Pos, chan: str | None) -> None:
        try:
            self.uni.unify(a, b)
        except UnifyClash as e:
            self.fail(dk.UNIFICATION_FAILURE, pos,
                      f"cannot reconcile {e.a} with {e.b}"
                      + (f" on channel {chan!r}" if chan else ""),
                      channel=chan)

    def unify_seq_or_fail(self, a, b, pos: Pos, chan: str | None) -> None:
        try:
            self.uni.unify(a, b)
        except UnifyClash as e:
            self.fail(dk.SEQ_MISMATCH, pos,
                      f"sequential type mismatch: {e.a} vs {e.b}",
                      channel=chan)

    def expr_type(self, e: Expr, seq_ctx) -> SeqType:
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, CharLit):
            return CHAR
        if isinstance(e, StringLit):
            return STRING
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, VarRef):
            if e.name not in seq_ctx:
                self.fail(dk.SEQ_MISMATCH, e.pos,
                          f"unbound variable {e.name!r}")
            return seq_ctx[e.name]
        if isinstance(e, StoreOf):
            return self.store_type(e, seq_ctx)
        raise TypeError(f"unhandled expression {type(e).__name__}")

    def store_type(self, e: StoreOf, seq_ctx) -> SeqType:
        if isinstance(e.target, str):
            info = self.c.sigs.get(e.target)
            if info is None:
                self.fail(dk.ILLEGAL_COMMAND, e.pos,
                          f"store of unknown process {e.target!r}")
            return StoreType(info.sig)
        # Inline definition: check it now against its mandatory signature.
        d = e.target
        sig = d.signature
        inner_seq = dict(seq_ctx)
        inner_seq.update(zip(d.seq_params, sig.seq_params))
        inner_chan: dict[str, ChanEntry] = {}
        for name, t in zip(d.in_params, sig.in_chans):
            inner_chan[name] = ChanEntry(t, INPUT)
        for name, t in zip(d.out_params, sig.out_chans):
            inner_chan[name] = ChanEntry(t, OUTPUT)
        sub = _BodyChecker(self.c, f"{self.proc}.store")
        sub.require_complete(d.body, inner_seq, inner_chan, d.pos)
        return StoreType(sig)

    # -- structured commands ----------------------------------------------

    def check_hput(self, cmd: HPut, seq_ctx, chan_ctx):
        entry = self.lookup(cmd.chan, cmd.pos, chan_ctx, "hput")
        decl = self.c.table.decl_of_handle(cmd.handle)
        if decl is None:
            self.fail(dk.HANDLE_UNKNOWN, cmd.pos,
                      f"unknown handle {cmd.handle!r}", channel=cmd.chan)
        app = self.force_app(cmd.chan, entry, decl, "hput", cmd.pos)
        unfolded = unfold_handle(decl, cmd.handle, app)
        self.advance(cmd.chan, chan_ctx, unfolded)
        self.note(cmd.pos, cmd.chan, entry, "hput")
        return _OPEN

    def force_app(self, chan: str, entry: ChanEntry, decl: ProtocolDecl,
                  command: str, pos: Pos):
        ctor = ProtoApp if decl.kind is DeclKind.PROTOCOL else CoprotoApp
        resolved = self.uni.resolve(entry.type)
        if isinstance(resolved, UVar):
            app = ctor(decl.name,
                       tuple(self.uni.fresh_seq() for _ in decl.seq_params))
            self.uni.unify(resolved, app)
        else:
            self.legality(chan, entry, command, pos, resolved)
            if not isinstance(resolved, ctor) or resolved.name != decl.name:
                self.fail(dk.HANDLE_UNKNOWN, pos,
                          f"handle belongs to {decl.name}, but {chan!r} has "
                          f"type {resolved}", channel=chan,
                          chan_type=resolved)
            app = resolved
        return app

    def check_hcase(self, cmd: HCase, seq_ctx, chan_ctx, last: bool):
        entry = self.lookup(cmd.chan, cmd.pos, chan_ctx, "hcase")
        decl = self.c.table.decl_of_handle(cmd.arms[0].handle)
        if decl is None:
            self.fail(dk.HANDLE_UNKNOWN, cmd.arms[0].pos,
                      f"unknown handle {cmd.arms[0].handle!r}",
                      channel=cmd.chan)
        seen = set()
        for arm in cmd.arms:
            owner = self.c.table.decl_of_handle(arm.handle)
            if owner is None or owner.name != decl.name:
                self.fail(dk.HANDLE_UNKNOWN, arm.pos,
                          f"handle {arm.handle!r} does not belong to "
                          f"{decl.name}", channel=cmd.chan)
            if arm.handle in seen:
                self.fail(dk.HANDLE_DUPLICATE, arm.pos,
                          f"duplicate hcase arm for {arm.handle!r}")
            seen.add(arm.handle)
        missing = [h.name for h in decl.handles if h.name not in seen]
        if missing:
            self.fail(dk.HANDLE_UNKNOWN, cmd.pos,
                      f"hcase on {cmd.chan!r} must cover every handle of "
                      f"{decl.name}; missing: {', '.join(missing)}",
                      channel=cmd.chan)
        app = self.force_app(cmd.chan, entry, decl, "hcase", cmd.pos)
        self.note(cmd.pos, cmd.chan, entry, "hcase")
        results = []
        for arm in cmd.arms:
            arm_seq = dict(seq_ctx)
            arm_ctx = {n: ChanEntry(en.type, en.pol)
                       for n, en in chan_ctx.items()}
            arm_ctx[cmd.chan] = ChanEntry(
                unfold_handle(decl, arm.handle, app), entry.pol)
            results.append(self.check_body(arm.body, arm_seq, arm_ctx))
        return self.merge_arms(cmd, "hcase", chan_ctx, results)

    def merge_arms(self, cmd, kind: str, chan_ctx, results):
        """hcase/race arms must agree: either every arm terminates (the
        command ends the body) or every arm leaves the same live context
        for the continuation."""
        def closed(state, ctx):
            return state is _TERMINATED or not ctx

        before = frozenset(chan_ctx)
        self.c.arm_sites.append(ArmSite(
            self.proc, cmd.pos, kind,
            tuple(before - frozenset(ctx or {}) if st is _OPEN else before
                  for st, ctx in results)))
        if all(closed(st, ctx) for st, ctx in results):
            return _TERMINATED
        if any(closed(st, ctx) for st, ctx in results):
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"{kind} arms disagree: some terminate and some "
                      f"leave channels live")
        base = results[0][1]
        for st, ctx in results[1:]:
            if set(ctx) != set(base):
                self.fail(dk.LINEARITY_DROP, cmd.pos,
                          f"{kind} arms consume different channel sets")
            for name in base:
                self.unify_or_fail(base[name].type, ctx[name].type,
                                   cmd.pos, name)
                if base[name].pol is not ctx[name].pol:
                    self.fail(dk.POLARITY_VIOLATION, cmd.pos,
                              f"{kind} arms leave {name!r} at different "
                              f"polarities", channel=name)
        chan_ctx.clear()
        chan_ctx.update(base)
        return _OPEN

    def check_race(self, cmd: Race, seq_ctx, chan_ctx, last: bool):
        for arm in cmd.arms:
            entry = chan_ctx.get(arm.chan)
            if entry is None:
                self.fail(dk.LINEARITY_REUSE, arm.pos,
                          f"raced channel {arm.chan!r} is not live",
                          channel=arm.chan)
            resolved = self.uni.resolve(entry.type)
            want = Get if entry.pol is OUTPUT else Put
            if isinstance(resolved, UVar):
                self.uni.unify(resolved,
                                    want(self.uni.fresh_seq(),
                                         self.uni.fresh_chan()))
            elif not isinstance(resolved, want):
                self.fail(dk.RACE_ARM_NOT_RECEIVING, arm.pos,
                          f"race arm on {arm.chan!r} cannot receive: its "
                          f"next step is not a value get (type {resolved} "
                          f"at {entry.pol})", channel=arm.chan,
                          chan_type=resolved)
            self.note(arm.pos, arm.chan, entry, "race")
        results = []
        for arm in cmd.arms:
            arm_seq = dict(seq_ctx)
            arm_ctx = {n: ChanEntry(en.type, en.pol)
                       for n, en in chan_ctx.items()}
            results.append(self.check_body(arm.body, arm_seq, arm_ctx))
        return self.merge_arms(cmd, "race", chan_ctx, results)

    def check_fork(self, cmd: Fork, seq_ctx, chan_ctx):
        entry = self.lookup(cmd.chan, cmd.pos, chan_ctx, "fork")
        want = Tensor if entry.pol is OUTPUT else Par
        resolved = self.uni.resolve(entry.type)
        if isinstance(resolved, UVar):
            resolved = want(self.uni.fresh_chan(), self.uni.fresh_chan())
            self.uni.unify(entry.type, resolved)
        else:
            self.legality(cmd.chan, entry, "fork", cmd.pos, resolved)
        self.note(cmd.pos, cmd.chan, entry, "fork")
        self.c.fork_sites.append(ForkSite(
            self.proc, cmd.pos, (resolved.left, resolved.right)))
        rest = {n: e for n, e in chan_ctx.items() if n != cmd.chan}
        frees = []
        for arm in cmd.arms:
            if arm.name in rest:
                self.fail(dk.LINEARITY_REUSE, arm.pos,
                          f"fork binder {arm.name!r} shadows a live channel",
                          channel=arm.name)
            frees.append(free_chans(arm.body) - {arm.name})
        overlap = frees[0] & frees[1] & set(rest)
        if overlap:
            self.fail(dk.LINEARITY_REUSE, cmd.pos,
                      f"fork branches both use channel(s): "
                      f"{', '.join(sorted(overlap))}",
                      channel=sorted(overlap)[0])
        uncovered = set(rest) - (frees[0] | frees[1])
        if uncovered:
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"fork branches leave channel(s) unused: "
                      f"{', '.join(sorted(uncovered))}",
                      channel=sorted(uncovered)[0])
        components = (resolved.left, resolved.right)
        consumed_sets = []
        for arm, component in zip(cmd.arms, components):
            arm_ctx = {n: ChanEntry(rest[n].type, rest[n].pol)
                       for n in rest if n in free_chans(arm.body)}
            arm_ctx[arm.name] = ChanEntry(component, entry.pol)
            consumed_sets.append(frozenset(arm_ctx))
            sub_seq = dict(seq_ctx)
            state, ctx = self.check_body(arm.body, sub_seq, arm_ctx)
            if state is _OPEN and ctx:
                self.fail(dk.LINEARITY_DROP, arm.pos,
                          f"fork branch {arm.name!r} ends with live "
                          f"channel(s): {', '.join(sorted(ctx))}")
        self.c.arm_sites.append(ArmSite(self.proc, cmd.pos, "fork",
                                        tuple(consumed_sets)))
        chan_ctx.clear()
        return _TERMINATED

    def check_split(self, cmd: Split, seq_ctx, chan_ctx):
        entry = self.lookup(cmd.chan, cmd.pos, chan_ctx, "split")
        want = Par if entry.pol is OUTPUT else Tensor
        resolved = self.uni.resolve(entry.type)
        if isinstance(resolved, UVar):
            resolved = want(self.uni.fresh_chan(), self.uni.fresh_chan())
            self.uni.unify(entry.type, resolved)
        else:
            self.legality(cmd.chan, entry, "split", cmd.pos, resolved)
        self.note(cmd.pos, cmd.chan, entry, "split")
        del chan_ctx[cmd.chan]
        for name in (cmd.left, cmd.right):
            if name in chan_ctx:
                self.fail(dk.LINEARITY_REUSE, cmd.pos,
                          f"split binder {name!r} shadows a live channel",
                          channel=name)
        chan_ctx[cmd.left] = ChanEntry(resolved.left, entry.pol)
        chan_ctx[cmd.right] = ChanEntry(resolved.right, entry.pol)
        return _OPEN

    def check_plug(self, cmd: Plug, seq_ctx, chan_ctx):
        live = set(chan_ctx)
        frees = [free_chans(b) for b in cmd.branches]
        plugged = sorted(set().union(*frees) - live)
        if not plugged:
            self.fail(dk.PLUG_CYCLE, cmd.pos,
                      "plug introduces no fresh channels; branches are "
                      "disconnected")

        # Claim enclosing channels linearly across branches.
        claimed: dict[str, int] = {}
        for idx, f in enumerate(frees):
            for name in f & live:
                if name in claimed:
                    self.fail(dk.LINEARITY_REUSE, cmd.pos,
                              f"plug branches {claimed[name]} and {idx} both "
                              f"use channel {name!r}", channel=name)
                claimed[name] = idx
        unclaimed = live - set(claimed)
        if unclaimed:
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"plug leaves enclosing channel(s) unused: "
                      f"{', '.join(sorted(unclaimed))}",
                      channel=sorted(unclaimed)[0])

        # Per plugged channel: exactly two branches, one per polarity.
        occurrences: dict[str, list[int]] = {n: [] for n in plugged}
        for idx, f in enumerate(frees):
            for name in f - live:
                occurrences[name].append(idx)
        polarity_of: dict[str, dict[int, Polarity]] = {}
        types: dict[str, UVar] = {n: self.uni.fresh_chan() for n in plugged}
        pol_sites: dict[str, tuple[int, int]] = {}
        for name, where in occurrences.items():
            if len(where) != 2:
                self.fail(dk.PLUG_POLARITY_MISMATCH, cmd.pos,
                          f"plugged channel {name!r} must appear in exactly "
                          f"two branches, found {len(where)}", channel=name)
            evidence = [self._branch_evidence(cmd.branches[i], name)
                        for i in where]
            first, second = evidence
            if first is None and second is None:
                first, second = OUTPUT, INPUT
            elif first is None:
                first = second.flipped()
            elif second is None:
                second = first.flipped()
            elif first is second:
                self.c._diag(dk.PLUG_POLARITY_MISMATCH, cmd.pos,
                             f"plugged channel {name!r} is used at polarity "
                             f"{first} by both branches; it needs one output "
                             f"and one input end", channel=name)
                second = first.flipped()   # repair so checking continues
            polarity_of[name] = {where[0]: first, where[1]: second}
            out_br = where[0] if first is OUTPUT else where[1]
            in_br = where[1] if first is OUTPUT else where[0]
            pol_sites[name] = (out_br, in_br)

        self._plug_graph(cmd, occurrences, len(cmd.branches))
        self.c.plug_sites.append(PlugSite(self.proc, cmd.pos,
                                          dict(types), pol_sites))

        for idx, branch in enumerate(cmd.branches):
            branch_ctx: dict[str, ChanEntry] = {}
            for name in frees[idx] & live:
                branch_ctx[name] = ChanEntry(chan_ctx[name].type,
                                             chan_ctx[name].pol)
            for name in frees[idx] - live:
                branch_ctx[name] = ChanEntry(types[name],
                                             polarity_of[name][idx])
            sub_seq = dict(seq_ctx)
            state, ctx = self.check_body(branch, sub_seq, branch_ctx)
            if state is _OPEN and ctx:
                self.fail(dk.LINEARITY_DROP, branch[0].pos,
                          f"plug branch ends with live channel(s): "
                          f"{', '.join(sorted(ctx))}")
        chan_ctx.clear()
        return _TERMINATED

    def _branch_evidence(self, branch: Body, name: str) -> Polarity | None:
        """Syntactic polarity evidence for a plugged channel: the matched
        parameter's polarity when the branch is a single call."""
        if len(branch) != 1 or not isinstance(branch[0], Call):
            return None
        call = branch[0]
        info = self.c.sigs.get(call.callee)
        target = self.c.exec_program.procs.get(call.callee)
        if info is None or target is None:
            return None
        params = target.chan_params
        for param, arg in zip(params, call.chan_args):
            if arg == name:
                return (INPUT if param in target.in_params else OUTPUT)
        return None

    def _plug_graph(self, cmd: Plug, occurrences: dict[str, list[int]],
                    n_branches: int) -> None:
        parent = list(range(n_branches))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges = 0
        for name, where in sorted(occurrences.items()):
            if len(where) != 2:
                continue
            a, b = find(where[0]), find(where[1])
            if a == b:
                self.fail(dk.PLUG_CYCLE, cmd.pos,
                          f"plug channels form a cycle through {name!r}",
                          channel=name)
            parent[a] = b
            edges += 1
        roots = {find(i) for i in range(n_branches)}
        if len(roots) > 1:
            self.fail(dk.PLUG_CYCLE, cmd.pos,
                      "plug branches are not connected by the plugged "
                      "channels")

    def check_call(self, cmd: Call, seq_ctx, chan_ctx):
        target = self.c.exec_program.procs.get(cmd.callee)
        info = self.c.sigs.get(cmd.callee)
        if target is None or info is None:
            self.fail(dk.ILLEGAL_COMMAND, cmd.pos,
                      f"call to unknown process {cmd.callee!r}")
        sig = info.sig
        return self._check_invocation(cmd, sig, target.in_params,
                                      target.out_params, seq_ctx, chan_ctx,
                                      f"process {cmd.callee!r}")

    def check_use(self, cmd: Use, seq_ctx, chan_ctx):
        st = self.uni.resolve(self.expr_type(cmd.stored, seq_ctx))
        if not isinstance(st, StoreType):
            self.fail(dk.SEQ_MISMATCH, cmd.pos,
                      f"use needs a stored process, found "
                      f"{self.uni.zonk(st)}; annotate the value if its "
                      f"type cannot be inferred here")
        sig = st.sig
        in_names = tuple(f"<in{i}>" for i in range(len(sig.in_chans)))
        out_names = tuple(f"<out{i}>" for i in range(len(sig.out_chans)))
        return self._check_invocation(cmd, sig, in_names, out_names,
                                      seq_ctx, chan_ctx, "stored process")

    def _check_invocation(self, cmd, sig: ProcSignature, in_params,
                          out_params, seq_ctx, chan_ctx, what: str):
        args = cmd.chan_args
        n_params = len(in_params) + len(out_params)
        if len(cmd.seq_args) != len(sig.seq_params) or len(args) != n_params:
            self.fail(dk.ARITY_MISMATCH, cmd.pos,
                      f"{what} takes {len(sig.seq_params)} value(s) and "
                      f"{n_params} channel(s); call passes "
                      f"{len(cmd.seq_args)} and {len(args)}")
        for e, want in zip(cmd.seq_args, sig.seq_params):
            got = self.expr_type(e, seq_ctx)
            self.unify_seq_or_fail(got, want, cmd.pos, None)
        param_types = sig.in_chans + sig.out_chans
        param_pols = ([INPUT] * len(in_params)) + ([OUTPUT] * len(out_params))
        for name, want, pol in zip(args, param_types, param_pols):
            entry = self.lookup(name, cmd.pos, chan_ctx, "pass")
            if entry.pol is not pol:
                self.fail(dk.POLARITY_VIOLATION, cmd.pos,
                          f"channel {name!r} is a {entry.pol} end but the "
                          f"{what} needs a {pol} end", channel=name)
            self.unify_or_fail(entry.type, want, cmd.pos, name)
            self.note(cmd.pos, name, entry, "call")
            del chan_ctx[name]
        if chan_ctx:
            names = ", ".join(sorted(chan_ctx))
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"call leaves channel(s) unconsumed: {names}",
                      channel=sorted(chan_ctx)[0])
        return _TERMINATED

    def check_link(self, cmd: Link, chan_ctx):
        a = self.lookup(cmd.left, cmd.pos, chan_ctx, "|=|")
        b = self.lookup(cmd.right, cmd.pos, chan_ctx, "|=|")
        if a.pol is b.pol:
            self.fail(dk.POLARITY_VIOLATION, cmd.pos,
                      f"|=| needs one input end and one output end; both "
                      f"{cmd.left!r} and {cmd.right!r} are {a.pol} ends",
                      channel=cmd.left)
        self.unify_or_fail(a.type, b.type, cmd.pos, cmd.left)
        self.note(cmd.pos, cmd.left, a, "|=|")
        self.note(cmd.pos, cmd.right, b, "|=|")
        del chan_ctx[cmd.left]
        del chan_ctx[cmd.right]
        if chan_ctx:
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"|=| leaves channel(s) unconsumed: "
                      f"{', '.join(sorted(chan_ctx))}")
        return _TERMINATED

    def check_neg(self, cmd: NegIntro, chan_ctx):
        entry = self.lookup(cmd.chan, cmd.pos, chan_ctx, "neg")
        resolved = self.uni.resolve(entry.type)
        if isinstance(resolved, UVar):
            inner = self.uni.fresh_chan()
            self.uni.unify(resolved, NegT(inner))
        elif isinstance(resolved, NegT):
            inner = resolved.inner
        else:
            self.legality(cmd.chan, entry, "neg", cmd.pos, resolved)
        if cmd.fresh in chan_ctx and cmd.fresh != cmd.chan:
            self.fail(dk.LINEARITY_REUSE, cmd.pos,
                      f"neg binder {cmd.fresh!r} shadows a live channel",
                      channel=cmd.fresh)
        self.note(cmd.pos, cmd.chan, entry, "neg")
        del chan_ctx[cmd.chan]
        chan_ctx[cmd.fresh] = ChanEntry(inner, entry.pol.flipped())
        return _OPEN


def _scc_order(procs: dict[str, ProcDef]) -> list[list[str]]:
    """Tarjan over the call/store reference graph, yielding groups with
    callees before callers, deterministically by file order."""
    names = list(procs)
    edges: dict[str, list[str]] = {n: [] for n in names}
    for name, d in procs.items():
        for ref in _refs(d):
            if ref in procs and ref not in edges[name]:
                edges[name].append(ref)

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    out: list[list[str]] = []

    def strongconnect(v: str) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in edges[v]:
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            group = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                group.append(w)
                if w == v:
                    break
            out.append(sorted(group, key=names.index))

    for v in names:
        if v not in index:
            strongconnect(v)
    return out


def _refs(d: ProcDef) -> list[str]:
    """Names of the processes `d` calls or stores, in order of mention."""
    refs: list[str] = []

    def expr(e):
        if type(e) is StoreOf:
            if isinstance(e.target, str):
                refs.append(e.target)
            else:
                body(e.target.body)
        return e

    def body(b):
        for cmd in b:
            if type(cmd) is Call:
                refs.append(cmd.callee)
            map_command(cmd, body, expr)
        return b

    body(d.body)
    return refs


def check_program(src: SourceProgram) -> TypedProgram:
    """Check a parsed program.  Returns the typed program on success and
    raises CheckFailure with every collected diagnostic otherwise."""
    return Checker(src).run()
