"""Static checker: linear channel usage under the per-type/per-polarity
command matrix, with full unification-based inference for omitted types.

Checking is deterministic: declarations are visited in file order grouped
by strongly-connected components of the call graph (callees first), fresh
inference variables are numbered in traversal order, and the final error
list is sorted by source position.  Errors accumulate; independent
mistakes in different processes are all reported in one pass.
"""

from __future__ import annotations

from operator import attrgetter

from . import diagnostics as dk
from .diagnostics import CheckFailure, Diagnostic, sort_key
from .elaborate import ExecProgram, cycle_edges, prepare, share_out
from .model import (
    COMMAND_HEADS, INPUT, OUTPUT, TOPBOT, Body, BoolLit, Call, ChanType,
    CharLit, Close, CoprotoApp, DeclKind, Fork, Get, GetVal, Halt, HCase,
    HPut, IntLit, Link, NegIntro, NegT, Par, Plug, Polarity, Pos, ProcDef,
    ProcSignature, ProtoApp, ProtocolDecl, Put, PutVal, Race, SeqType,
    SeqUVar, SourceProgram, Split, StoreOf, StoreType, StringLit, Tensor,
    TopBot, UVar, Use, VarRef, allowed_commands, map_signature, map_type,
    record, type_parts, unfold_handle,
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
        if type(a) in _VARS:
            a = self.resolve(a)
        if type(b) in _VARS:
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


class Solved:
    """The substitution once inference is over, when it no longer changes:
    `zonk` and `mentions_service` are memoised per node.  Solved types
    share their nodes, so zonking every site of a fork tower costs the
    size of the solved types' DAG, not the sum of each site's tree.
    `Unifier.zonk` and `mentions_service` are the references."""

    def __init__(self, uni: Unifier):
        self.uni = uni
        # id(node) -> (node, result); holding the node keeps its id from
        # being reused while the entry lives.
        self._zonked: dict[int, tuple] = {}
        self._service: dict[int, tuple] = {}

    def zonk(self, t):
        entry = self._zonked.get(id(t))
        if entry is None:
            # A variable takes its solution's entry without a second zonk
            # frame, so a level of type nesting costs two frames.
            head = self.uni.resolve(t)
            entry = self._zonked.get(id(head))
            if entry is None:
                entry = self._zonked[id(head)] = (head,
                                                  map_type(head, self.zonk))
            if head is not t:
                self._zonked[id(t)] = (t, entry[1])
        return entry[1]

    def mentions_service(self, t) -> bool:
        entry = self._service.get(id(t))
        if entry is None:
            entry = self._service[id(t)] = (
                t, _mentions_service(t, self.mentions_service))
        return entry[1]


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
    return _mentions_service(t, mentions_service)


def _mentions_service(t, sub) -> bool:
    """`mentions_service(t)`, with each component's answer from `sub`."""
    if isinstance(t, CoprotoApp) and t.name == CONSOLE:
        return True
    if isinstance(t, (Put, Get)):
        return sub(t.rest)
    if isinstance(t, (Tensor, Par)):
        return sub(t.left) or sub(t.right)
    if isinstance(t, NegT):
        return sub(t.inner)
    return False


# ---------------------------------------------------------------------------
# protocol registry

def _handle_decls(decls: list[ProtocolDecl],
                  errors: list[Diagnostic]) -> dict[str, ProtocolDecl]:
    """Handle name -> declaration, built-ins included.  Declaration and
    handle names must be unique, and no handle may mention the service
    type."""
    names = set(BUILTIN_DECLS)
    by_handle = {h.name: d for d in BUILTIN_DECLS.values()
                 for h in d.handles}
    for d in decls:
        if d.name in names:
            errors.append(Diagnostic(
                dk.HANDLE_DUPLICATE, d.pos,
                f"declaration name {d.name!r} is already taken"))
            continue
        names.add(d.name)
        for h in d.handles:
            if h.name in by_handle:
                other = by_handle[h.name].name
                errors.append(Diagnostic(
                    dk.HANDLE_DUPLICATE, h.pos,
                    f"handle name {h.name!r} is already used by "
                    f"{other}; handle names must be globally unique"))
                continue
            by_handle[h.name] = d
        for h in d.handles:
            if mentions_service(h.body):
                errors.append(Diagnostic(
                    dk.ILLEGAL_COMMAND, h.pos,
                    f"handle {h.name!r} mentions the service type "
                    f"{CONSOLE}; service channels cannot be declared"))
    return by_handle


# ---------------------------------------------------------------------------
# checked-program artifacts

@record
class ChanEntry:
    """A live channel's current type and polarity.  Never mutated, so
    copies of a context share their entries."""
    type: object
    pol: Polarity


@record
class PlugSite:
    pos: Pos
    chan_types: dict[str, object]


@record
class ForkSite:
    pos: Pos
    components: tuple[object, object]


@record
class TypedProgram:
    """Checker output: the program readied for the machine, every
    process's solved signature, and the solved types of the channels each
    plug and fork creates."""
    exec_program: ExecProgram
    signatures: dict[str, ProcSignature]
    plug_sites: list[PlugSite]
    fork_sites: list[ForkSite]


class _BodyError(Exception):
    """Aborts the current body after its diagnostic has been recorded."""


class Checker:
    def __init__(self, src: SourceProgram):
        self.exec_program = prepare(src)
        self.errors: list[Diagnostic] = []
        self.uni = Unifier()
        self.handles = _handle_decls(
            [d for d in src.decls if isinstance(d, ProtocolDecl)],
            self.errors)
        self.sigs: dict[str, ProcSignature] = {}
        self.plug_sites: list[PlugSite] = []
        self.fork_sites: list[ForkSite] = []
        # (handle, id(application node)) -> (the node, its unfolding); the
        # entry holds the node, so no id is reused while it lives.
        self.unfoldings: dict[tuple[str, int], tuple] = {}

    # -- driver ---------------------------------------------------------

    def run(self) -> TypedProgram:
        procs = self.exec_program.procs
        for group in _scc_order(procs, self.exec_program.refs):
            for name in group:
                self.sigs[name] = self._initial_sig(procs[name])
            for name in group:
                try:
                    self.check_def(procs[name], self.sigs[name], {})
                except _BodyError:
                    pass
        # Signatures may only become ground once callers constrain them
        # (the peer across a plug often pins a message type), so audit
        # completeness after the whole program has been visited.
        solved = Solved(self.uni)
        signatures = {name: map_signature(self.sigs[name], solved.zonk)
                      for name in procs}
        for name, sig in signatures.items():
            self._finalize_sig(procs[name], sig)
        if "run" in procs:
            self._check_run_shape(procs["run"], signatures["run"])
        self._audit_created_types(solved)
        if self.errors:
            self.errors.sort(key=sort_key)
            raise CheckFailure(self.errors)
        return TypedProgram(self.exec_program, signatures, self.plug_sites,
                            self.fork_sites)

    def _initial_sig(self, d: ProcDef) -> ProcSignature:
        """`d`'s declared signature, or fresh variables when it has none or
        one that does not match its context line."""
        sig = d.signature
        if sig is not None:
            if (len(sig.seq_params) == len(d.seq_params)
                    and len(sig.in_chans) == len(d.in_params)
                    and len(sig.out_chans) == len(d.out_params)):
                return sig
            self._diag(dk.ARITY_MISMATCH, d.pos,
                       f"signature of {d.name!r} lists "
                       f"{len(sig.seq_params)}|{len(sig.in_chans)}"
                       f"=>{len(sig.out_chans)} but the context line "
                       f"binds {len(d.seq_params)}|{len(d.in_params)}"
                       f"=>{len(d.out_params)}")
        return ProcSignature(
            tuple(self.uni.fresh_seq() for _ in d.seq_params),
            tuple(self.uni.fresh_chan() for _ in d.in_params),
            tuple(self.uni.fresh_chan() for _ in d.out_params))

    def _finalize_sig(self, d: ProcDef, solved: ProcSignature) -> None:
        unsolved = [*filter(has_uvars, solved.seq_params + solved.in_chans
                            + solved.out_chans)]
        if unsolved:
            self._diag(dk.UNIFICATION_FAILURE, d.pos,
                       f"could not infer a complete signature for "
                       f"{d.name!r}; underdetermined type(s): "
                       f"{', '.join(str(t) for t in unsolved)}")

    def _check_run_shape(self, d: ProcDef, sig: ProcSignature) -> None:
        if sig.seq_params:
            self._diag(dk.ILLEGAL_COMMAND, d.pos,
                       "run cannot take sequential parameters")
        if sig.out_chans:
            self._diag(dk.ILLEGAL_COMMAND, d.pos,
                       "run cannot take output channels; service channels "
                       "sit at run's input side")
        consoles = 0
        for t in sig.in_chans:
            if isinstance(t, CoprotoApp) and t.name == CONSOLE:
                consoles += 1
            elif not has_uvars(t):   # else reported as underdetermined
                self._diag(dk.ILLEGAL_COMMAND, d.pos,
                           f"run may hold only service channels, found {t}")
        if consoles > 1:
            self._diag(dk.ILLEGAL_COMMAND, d.pos,
                       "run may hold at most one Console channel")

    def _audit_created_types(self, solved: Solved) -> None:
        """Zonk every plug and fork site's types in place and reject those
        that carry the service type."""
        for site in self.plug_sites:
            for name, t in site.chan_types.items():
                t = site.chan_types[name] = solved.zonk(t)
                if solved.mentions_service(t):
                    self._diag(dk.ILLEGAL_COMMAND, site.pos,
                               f"plug creates channel {name!r} carrying the "
                               f"service type {CONSOLE}; only run receives "
                               f"service channels", channel=name)
        for site in self.fork_sites:
            site.components = tuple(map(solved.zonk, site.components))
            for t in site.components:
                if solved.mentions_service(t):
                    self._diag(dk.ILLEGAL_COMMAND, site.pos,
                               f"fork creates a channel carrying the "
                               f"service type {CONSOLE}")

    def _diag(self, kind: str, pos: Pos, message: str,
              channel: str | None = None,
              chan_type: str | None = None) -> None:
        self.errors.append(Diagnostic(kind, pos, message, channel,
                                      chan_type))

    # Records a diagnostic and aborts the current body.
    def fail(self, kind: str, pos: Pos, message: str,
             channel: str | None = None, chan_type=None):
        rendered = None if chan_type is None else str(
            self.uni.zonk(chan_type))
        self._diag(kind, pos, message, channel, rendered)
        raise _BodyError()

    def check_def(self, d: ProcDef, sig: ProcSignature, seq_ctx) -> None:
        """Check `d`'s body under `sig`, with `seq_ctx` as the enclosing
        sequential scope; the body must consume every channel."""
        seq_ctx = dict(seq_ctx)
        seq_ctx.update(zip(d.seq_params, sig.seq_params))
        params = d.chan_params
        if len(set(params)) != len(params):
            twice = sorted({n for n in params if params.count(n) > 1})
            self._diag(dk.LINEARITY_REUSE, d.pos,
                       f"the context line of {d.name!r} binds channel(s) "
                       f"more than once: {', '.join(twice)}",
                       channel=twice[0])
        chan_ctx = {}
        for name, t in zip(d.in_params, sig.in_chans):
            chan_ctx[name] = ChanEntry(t, INPUT)
        for name, t in zip(d.out_params, sig.out_chans):
            chan_ctx[name] = ChanEntry(t, OUTPUT)
        ctx = self.check_body(d.body, seq_ctx, chan_ctx)
        if ctx:
            names = ", ".join(sorted(ctx))
            self.fail(dk.LINEARITY_DROP, d.body[-1].pos if d.body else d.pos,
                      f"body ends with live channel(s): {names}",
                      channel=sorted(ctx)[0])

    # -- body loop --------------------------------------------------------

    def check_body(self, body: Body, seq_ctx: dict, chan_ctx: dict):
        """Returns the live context the body leaves, or None when a command
        ended it; either way the body is finished when nothing is left live.
        Each command goes straight to its `_CHECKS` handler, so a level of
        nesting costs two frames: this one and the handler's."""
        for i, cmd in enumerate(body):
            if _CHECKS[type(cmd)](self, cmd, seq_ctx, chan_ctx):
                if i + 1 < len(body):
                    self.fail(dk.HALT_NOT_LAST, body[i + 1].pos,
                              "unreachable command after a terminating "
                              "command")
                return None
        return chan_ctx

    # Each handler takes (cmd, seq_ctx, chan_ctx) and updates `chan_ctx` in
    # place.  It returns True when `cmd` ends the body, and falls through
    # otherwise.

    def check_put(self, cmd: PutVal, seq_ctx, chan_ctx):
        entry = chan_ctx.get(cmd.chan) or self.unbound(cmd.chan, cmd.pos,
                                                       "put")
        head = self.shape(cmd.chan, entry, "put", cmd.pos)
        vt = _EXPRS[type(cmd.expr)](self, cmd.expr, seq_ctx)
        self.unify_or_fail(vt, head.msg, cmd.pos, cmd.chan, seq=True)
        chan_ctx[cmd.chan] = ChanEntry(head.rest, entry.pol)

    def check_get(self, cmd: GetVal, seq_ctx, chan_ctx):
        entry = chan_ctx.get(cmd.chan) or self.unbound(cmd.chan, cmd.pos,
                                                       "get")
        head = self.shape(cmd.chan, entry, "get", cmd.pos)
        seq_ctx[cmd.binder] = head.msg
        chan_ctx[cmd.chan] = ChanEntry(head.rest, entry.pol)

    def check_close(self, cmd: Close, seq_ctx, chan_ctx):
        entry = chan_ctx.get(cmd.chan) or self.unbound(cmd.chan, cmd.pos,
                                                       "close")
        self.shape(cmd.chan, entry, "close", cmd.pos)
        del chan_ctx[cmd.chan]

    def check_halt(self, cmd: Halt, seq_ctx, chan_ctx):
        entry = chan_ctx.get(cmd.chan) or self.unbound(cmd.chan, cmd.pos,
                                                       "halt")
        self.shape(cmd.chan, entry, "halt", cmd.pos)
        del chan_ctx[cmd.chan]
        if chan_ctx:
            names = ", ".join(sorted(chan_ctx))
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"halt on {cmd.chan!r} while other channel(s) are "
                      f"still live: {names}", channel=cmd.chan)
        return True

    # -- helpers ----------------------------------------------------------

    def unbound(self, chan: str | None, pos: Pos, command: str):
        """Fails `command` on `chan`, which the context does not hold.
        Handlers call it only when their `chan_ctx.get` misses."""
        if chan is None:
            self.fail(dk.ILLEGAL_COMMAND, pos,
                      f"{command} without a channel outside an 'on' block")
        self.fail(dk.LINEARITY_REUSE, pos,
                  f"channel {chan!r} is not live here (already consumed "
                  f"or never bound)", channel=chan)

    def legality(self, chan: str, entry: ChanEntry, command: str,
                 pos: Pos, resolved) -> None:
        """Fails `command` on `chan`, whose type `resolved` the matrix
        rejects at the entry's polarity; `shape` calls it only then."""
        allowed = allowed_commands(resolved, entry.pol)
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

    def shape(self, chan: str, entry: ChanEntry, command: str, pos: Pos,
              decl: ProtocolDecl | None = None):
        """The outermost constructor of the channel's type, which must
        allow `command` and, for a handle command, be `decl`'s.  A variable
        is first solved, with fresh parts, to the constructor
        `COMMAND_HEADS` gives `command` at the entry's polarity; for a
        handle command, to `decl`'s application at either polarity, which
        the matrix then judges like any other type."""
        want = COMMAND_HEADS[command][entry.pol is INPUT]
        resolved = entry.type
        if type(resolved) is UVar:
            resolved = self.uni.resolve(resolved)
            if type(resolved) is UVar:
                head = self.fresh_head(want, decl)
                # Its parts are fresh, so the variable cannot occur in it.
                self.uni.sub[resolved.uid] = head
                resolved = head
        if type(resolved) is not want:
            self.legality(chan, entry, command, pos, resolved)
        if decl is not None and resolved.name != decl.name:
            self.fail(dk.HANDLE_UNKNOWN, pos,
                      f"handle belongs to {decl.name}, but {chan!r} has "
                      f"type {resolved}", channel=chan, chan_type=resolved)
        return resolved

    def fresh_head(self, head, decl: ProtocolDecl | None = None):
        """`head` with fresh variables for its parts, `?sN` before `?cN`;
        for a handle command, `decl`'s application."""
        uni = self.uni
        if head is TopBot:
            return TOPBOT
        if head is Put or head is Get:
            return head(uni.fresh_seq(), uni.fresh_chan())
        if head is Tensor or head is Par:
            return head(uni.fresh_chan(), uni.fresh_chan())
        if head is NegT:
            return NegT(uni.fresh_chan())
        ctor = ProtoApp if decl.kind is DeclKind.PROTOCOL else CoprotoApp
        return ctor(decl.name, tuple(uni.fresh_seq() for _ in decl.seq_params))

    def unify_or_fail(self, a, b, pos: Pos, chan: str | None,
                      seq: bool = False) -> None:
        """Unify `a` with `b`, which are sequential types when `seq`."""
        try:
            self.uni.unify(a, b)
        except UnifyClash as e:
            if seq:
                self.fail(dk.SEQ_MISMATCH, pos,
                          f"sequential type mismatch: {e.a} vs {e.b}",
                          channel=chan)
            self.fail(dk.UNIFICATION_FAILURE, pos,
                      f"cannot reconcile {e.a} with {e.b}"
                      + (f" on channel {chan!r}" if chan else ""),
                      channel=chan)

    # Each expression's type comes from its `_EXPRS` entry: a literal's is
    # fixed, and these two compute theirs.

    def var_type(self, e: VarRef, seq_ctx) -> SeqType:
        if e.name not in seq_ctx:
            self.fail(dk.SEQ_MISMATCH, e.pos, f"unbound variable {e.name!r}")
        return seq_ctx[e.name]

    def store_type(self, e: StoreOf, seq_ctx) -> SeqType:
        if isinstance(e.target, str):
            sig = self.sigs.get(e.target)
            if sig is None:
                self.fail(dk.ILLEGAL_COMMAND, e.pos,
                          f"store of unknown process {e.target!r}")
            return StoreType(sig)
        # Inline definition: check it now against its mandatory signature.
        d = e.target
        self.check_def(d, d.signature, seq_ctx)
        return StoreType(d.signature)

    # -- structured commands ----------------------------------------------

    def check_hput(self, cmd: HPut, seq_ctx, chan_ctx):
        entry = chan_ctx.get(cmd.chan) or self.unbound(cmd.chan, cmd.pos,
                                                       "hput")
        decl = self.handles.get(cmd.handle)
        if decl is None:
            self.fail(dk.HANDLE_UNKNOWN, cmd.pos,
                      f"unknown handle {cmd.handle!r}", channel=cmd.chan)
        app = self.shape(cmd.chan, entry, "hput", cmd.pos, decl)
        chan_ctx[cmd.chan] = ChanEntry(self.unfold(decl, cmd.handle, app),
                                       entry.pol)

    def check_hcase(self, cmd: HCase, seq_ctx, chan_ctx):
        entry = chan_ctx.get(cmd.chan) or self.unbound(cmd.chan, cmd.pos,
                                                       "hcase")
        decl = self.handles.get(cmd.arms[0].label)
        if decl is None:
            self.fail(dk.HANDLE_UNKNOWN, cmd.arms[0].pos,
                      f"unknown handle {cmd.arms[0].label!r}",
                      channel=cmd.chan)
        seen = set()
        for arm in cmd.arms:
            owner = self.handles.get(arm.label)
            if owner is None or owner.name != decl.name:
                self.fail(dk.HANDLE_UNKNOWN, arm.pos,
                          f"handle {arm.label!r} does not belong to "
                          f"{decl.name}", channel=cmd.chan)
            if arm.label in seen:
                self.fail(dk.HANDLE_DUPLICATE, arm.pos,
                          f"duplicate hcase arm for {arm.label!r}")
            seen.add(arm.label)
        if not seen.issuperset(map(attrgetter("name"), decl.handles)):
            missing = [h.name for h in decl.handles if h.name not in seen]
            self.fail(dk.HANDLE_UNKNOWN, cmd.pos,
                      f"hcase on {cmd.chan!r} must cover every handle of "
                      f"{decl.name}; missing: {', '.join(missing)}",
                      channel=cmd.chan)
        app = self.shape(cmd.chan, entry, "hcase", cmd.pos, decl)
        results = []
        for arm in cmd.arms:
            arm_ctx = dict(chan_ctx)
            arm_ctx[cmd.chan] = ChanEntry(
                self.unfold(decl, arm.label, app), entry.pol)
            results.append(self.check_body(arm.body, dict(seq_ctx), arm_ctx))
        return self.merge_arms(cmd, "hcase", chan_ctx, results)

    def unfold(self, decl: ProtocolDecl, handle: str, app) -> ChanType:
        """`unfold_handle(decl, handle, app)`, built once per handle and
        application node: a recursive protocol's unfolding holds its own
        application, so each step along it unfolds the same node again.
        A handle name picks one declaration, so it keys `decl` too."""
        key = (handle, id(app))
        entry = self.unfoldings.get(key)
        if entry is None:
            entry = self.unfoldings[key] = (
                app, unfold_handle(decl, handle, app))
        return entry[1]

    def merge_arms(self, cmd, kind: str, chan_ctx, results):
        """hcase/race arms must agree: either every arm finishes its body
        (the command ends the body) or every arm leaves the same live
        context for the continuation."""
        if not any(results):
            return True
        if not all(results):
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"{kind} arms disagree: some terminate and some "
                      f"leave channels live")
        base = results[0]
        for ctx in results[1:]:
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

    def check_race(self, cmd: Race, seq_ctx, chan_ctx):
        for arm in cmd.arms:
            entry = chan_ctx.get(arm.label)
            if entry is None:
                self.fail(dk.LINEARITY_REUSE, arm.pos,
                          f"raced channel {arm.label!r} is not live",
                          channel=arm.label)
            resolved = self.uni.resolve(entry.type)
            want = COMMAND_HEADS["get"][entry.pol is INPUT]
            if type(resolved) is UVar:
                self.uni.unify(resolved, self.fresh_head(want))
            elif type(resolved) is not want:
                self.fail(dk.RACE_ARM_NOT_RECEIVING, arm.pos,
                          f"race arm on {arm.label!r} cannot receive: its "
                          f"next step is not a value get (type {resolved} "
                          f"at {entry.pol})", channel=arm.label,
                          chan_type=resolved)
        results = []
        for arm in cmd.arms:
            results.append(self.check_body(arm.body, dict(seq_ctx),
                                           dict(chan_ctx)))
        return self.merge_arms(cmd, "race", chan_ctx, results)

    def check_fork(self, cmd: Fork, seq_ctx, chan_ctx):
        entry = chan_ctx.get(cmd.chan) or self.unbound(cmd.chan, cmd.pos,
                                                       "fork")
        resolved = self.shape(cmd.chan, entry, "fork", cmd.pos)
        components = (resolved.left, resolved.right)
        self.fork_sites.append(ForkSite(cmd.pos, components))
        del chan_ctx[cmd.chan]
        frees = []
        for arm in cmd.arms:
            if arm.label in chan_ctx:
                self.fail(dk.LINEARITY_REUSE, arm.pos,
                          f"fork binder {arm.label!r} shadows a live channel",
                          channel=arm.label)
            frees.append(self.exec_program.free_chans(arm.body)
                         - {arm.label})
        overlap = frees[0] & frees[1] & chan_ctx.keys()
        if overlap:
            self.fail(dk.LINEARITY_REUSE, cmd.pos,
                      f"fork branches both use channel(s): "
                      f"{', '.join(sorted(overlap))}",
                      channel=sorted(overlap)[0])
        uncovered = chan_ctx.keys() - (frees[0] | frees[1])
        if uncovered:
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"fork branches leave channel(s) unused: "
                      f"{', '.join(sorted(uncovered))}",
                      channel=sorted(uncovered)[0])
        for arm, component, free in zip(cmd.arms, components, frees):
            # `free` lacks only the binder, which is not in `chan_ctx`.
            arm_ctx = {n: e for n, e in chan_ctx.items() if n in free}
            arm_ctx[arm.label] = ChanEntry(component, entry.pol)
            ctx = self.check_body(arm.body, dict(seq_ctx), arm_ctx)
            if ctx:
                self.fail(dk.LINEARITY_DROP, arm.pos,
                          f"fork branch {arm.label!r} ends with live "
                          f"channel(s): {', '.join(sorted(ctx))}")
        return True

    def check_split(self, cmd: Split, seq_ctx, chan_ctx):
        entry = chan_ctx.get(cmd.chan) or self.unbound(cmd.chan, cmd.pos,
                                                       "split")
        resolved = self.shape(cmd.chan, entry, "split", cmd.pos)
        del chan_ctx[cmd.chan]
        for name in (cmd.left, cmd.right):
            if name in chan_ctx:
                self.fail(dk.LINEARITY_REUSE, cmd.pos,
                          f"split binder {name!r} shadows a live channel",
                          channel=name)
        if cmd.left == cmd.right:
            self.fail(dk.LINEARITY_REUSE, cmd.pos,
                      f"split binds {cmd.left!r} to both halves",
                      channel=cmd.left)
        chan_ctx[cmd.left] = ChanEntry(resolved.left, entry.pol)
        chan_ctx[cmd.right] = ChanEntry(resolved.right, entry.pol)

    def check_plug(self, cmd: Plug, seq_ctx, chan_ctx):
        live = set(chan_ctx)
        frees = list(map(self.exec_program.free_chans, cmd.branches))
        users = share_out(frees)
        plugged = sorted(users.keys() - live)
        if not plugged:
            self.fail(dk.PLUG_CYCLE, cmd.pos,
                      "plug introduces no fresh channels; branches are "
                      "disconnected")

        # Claim enclosing channels linearly across branches: the clash
        # reported is the first in branch order, then by name, so no
        # diagnostic depends on the hash seed.
        clashes = sorted([(where[1], name, where[0])
                          for name, where in users.items()
                          if len(where) > 1 and name in live])
        if clashes:
            second, name, first = clashes[0]
            self.fail(dk.LINEARITY_REUSE, cmd.pos,
                      f"plug branches {first} and {second} both use "
                      f"channel {name!r}", channel=name)
        unclaimed = live - users.keys()
        if unclaimed:
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"plug leaves enclosing channel(s) unused: "
                      f"{', '.join(sorted(unclaimed))}",
                      channel=sorted(unclaimed)[0])

        # Per plugged channel: exactly two branches, one per polarity.
        polarity_of: dict[str, dict[int, Polarity]] = {}
        types: dict[str, UVar] = {}
        for name in plugged:
            types[name] = self.uni.fresh_chan()
        for name in plugged:
            where = users[name]
            if len(where) != 2:
                self.fail(dk.PLUG_POLARITY_MISMATCH, cmd.pos,
                          f"plugged channel {name!r} must appear in exactly "
                          f"two branches, found {len(where)}", channel=name)
            first = self._branch_evidence(cmd.branches[where[0]], name)
            second = self._branch_evidence(cmd.branches[where[1]], name)
            if first is None and second is None:
                first, second = OUTPUT, INPUT
            elif first is None:
                first = second.flipped()
            elif second is None:
                second = first.flipped()
            elif first is second:
                self._diag(dk.PLUG_POLARITY_MISMATCH, cmd.pos,
                             f"plugged channel {name!r} is used at polarity "
                             f"{first} by both branches; it needs one output "
                             f"and one input end", channel=name)
                second = first.flipped()   # repair so checking continues
            polarity_of[name] = {where[0]: first, where[1]: second}

        # The plugged channels, each joining two branches, must connect the
        # branches as a tree: a forest with one edge fewer than nodes.
        cycle = cycle_edges((name, *users[name]) for name in plugged)
        if cycle:
            self.fail(dk.PLUG_CYCLE, cmd.pos,
                      f"plug channels form a cycle through {cycle[0]!r}",
                      channel=cycle[0])
        if len(plugged) != len(cmd.branches) - 1:
            self.fail(dk.PLUG_CYCLE, cmd.pos,
                      "plug branches are not connected by the plugged "
                      "channels")
        self.plug_sites.append(PlugSite(cmd.pos, types))

        for idx, branch in enumerate(cmd.branches):
            branch_ctx: dict[str, ChanEntry] = {}
            for name in sorted(frees[idx] & live):
                branch_ctx[name] = chan_ctx[name]
            for name in sorted(frees[idx] - live):
                branch_ctx[name] = ChanEntry(types[name],
                                             polarity_of[name][idx])
            ctx = self.check_body(branch, dict(seq_ctx), branch_ctx)
            if ctx:
                self.fail(dk.LINEARITY_DROP, branch[0].pos,
                          f"plug branch ends with live channel(s): "
                          f"{', '.join(sorted(ctx))}")
        return True

    def _branch_evidence(self, branch: Body, name: str) -> Polarity | None:
        """Syntactic polarity evidence for a plugged channel: the matched
        parameter's polarity when the branch is a single call."""
        if len(branch) != 1 or not isinstance(branch[0], Call):
            return None
        call = branch[0]
        target = self.exec_program.procs.get(call.callee)
        if call.callee not in self.sigs or target is None:
            return None
        for param, arg in zip(target.chan_params, call.chan_args):
            if arg == name:
                return (INPUT if param in target.in_params else OUTPUT)
        return None

    def check_call(self, cmd: Call, seq_ctx, chan_ctx):
        sig = self.sigs.get(cmd.callee)
        if sig is None:
            self.fail(dk.ILLEGAL_COMMAND, cmd.pos,
                      f"call to unknown process {cmd.callee!r}")
        return self._check_invocation(cmd, sig, seq_ctx, chan_ctx,
                                      f"process {cmd.callee!r}")

    def check_use(self, cmd: Use, seq_ctx, chan_ctx):
        st = self.uni.resolve(
            _EXPRS[type(cmd.stored)](self, cmd.stored, seq_ctx))
        if not isinstance(st, StoreType):
            self.fail(dk.SEQ_MISMATCH, cmd.pos,
                      f"use needs a stored process, found "
                      f"{self.uni.zonk(st)}; annotate the value if its "
                      f"type cannot be inferred here")
        return self._check_invocation(cmd, st.sig, seq_ctx, chan_ctx,
                                      "stored process")

    def _check_invocation(self, cmd, sig: ProcSignature, seq_ctx, chan_ctx,
                          what: str):
        """Checks a call or use against `sig` alone: a process's signature
        is sized by its context line (`_initial_sig`)."""
        args = cmd.chan_args
        param_types = sig.in_chans + sig.out_chans
        n_params = len(param_types)
        if len(cmd.seq_args) != len(sig.seq_params) or len(args) != n_params:
            self.fail(dk.ARITY_MISMATCH, cmd.pos,
                      f"{what} takes {len(sig.seq_params)} value(s) and "
                      f"{n_params} channel(s); call passes "
                      f"{len(cmd.seq_args)} and {len(args)}")
        for e, want in zip(cmd.seq_args, sig.seq_params):
            got = _EXPRS[type(e)](self, e, seq_ctx)
            self.unify_or_fail(got, want, cmd.pos, None, seq=True)
        param_pols = ([INPUT] * len(sig.in_chans)
                      + [OUTPUT] * len(sig.out_chans))
        for name, want, pol in zip(args, param_types, param_pols):
            entry = chan_ctx.get(name) or self.unbound(name, cmd.pos, "pass")
            if entry.pol is not pol:
                self.fail(dk.POLARITY_VIOLATION, cmd.pos,
                          f"channel {name!r} is a {entry.pol} end but the "
                          f"{what} needs a {pol} end", channel=name)
            self.unify_or_fail(entry.type, want, cmd.pos, name)
            del chan_ctx[name]
        if chan_ctx:
            names = ", ".join(sorted(chan_ctx))
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"call leaves channel(s) unconsumed: {names}",
                      channel=sorted(chan_ctx)[0])
        return True

    def check_link(self, cmd: Link, seq_ctx, chan_ctx):
        a = chan_ctx.get(cmd.left) or self.unbound(cmd.left, cmd.pos, "|=|")
        b = chan_ctx.get(cmd.right) or self.unbound(cmd.right, cmd.pos, "|=|")
        if a.pol is b.pol:
            self.fail(dk.POLARITY_VIOLATION, cmd.pos,
                      f"|=| needs one input end and one output end; both "
                      f"{cmd.left!r} and {cmd.right!r} are {a.pol} ends",
                      channel=cmd.left)
        self.unify_or_fail(a.type, b.type, cmd.pos, cmd.left)
        del chan_ctx[cmd.left]
        del chan_ctx[cmd.right]
        if chan_ctx:
            self.fail(dk.LINEARITY_DROP, cmd.pos,
                      f"|=| leaves channel(s) unconsumed: "
                      f"{', '.join(sorted(chan_ctx))}")
        return True

    def check_neg(self, cmd: NegIntro, seq_ctx, chan_ctx):
        entry = chan_ctx.get(cmd.chan) or self.unbound(cmd.chan, cmd.pos,
                                                       "neg")
        inner = self.shape(cmd.chan, entry, "neg", cmd.pos).inner
        if cmd.fresh in chan_ctx and cmd.fresh != cmd.chan:
            self.fail(dk.LINEARITY_REUSE, cmd.pos,
                      f"neg binder {cmd.fresh!r} shadows a live channel",
                      channel=cmd.fresh)
        del chan_ctx[cmd.chan]
        chan_ctx[cmd.fresh] = ChanEntry(inner, entry.pol.flipped())


def _scc_order(procs: dict[str, ProcDef],
               refs: dict[str, list[str]]) -> list[list[str]]:
    """Tarjan over the call/store reference graph `refs` (from `prepare`),
    yielding groups with callees before callers, deterministically by file
    order."""
    names = list(procs)
    position = {n: i for i, n in enumerate(names)}
    edges = {n: [r for r in dict.fromkeys(refs[n]) if r in procs]
             for n in names}

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
            out.append(sorted(group, key=position.__getitem__))

    for v in names:
        if v not in index:
            strongconnect(v)
    # The recursive closure is a reference cycle; emptying its cell frees
    # it and the tables it holds without the cyclic collector.
    del strongconnect
    return out


def check_program(src: SourceProgram) -> TypedProgram:
    """Check a parsed program.  Returns the typed program on success and
    raises CheckFailure with every collected diagnostic otherwise."""
    return Checker(src).run()


# `check_body`'s handler for each command class.  `OnDo` is absent:
# `prepare` desugars it away.
_CHECKS = {
    PutVal: Checker.check_put,
    GetVal: Checker.check_get,
    HPut: Checker.check_hput,
    HCase: Checker.check_hcase,
    Close: Checker.check_close,
    Halt: Checker.check_halt,
    Fork: Checker.check_fork,
    Split: Checker.check_split,
    Plug: Checker.check_plug,
    Race: Checker.check_race,
    Call: Checker.check_call,
    Use: Checker.check_use,
    Link: Checker.check_link,
    NegIntro: Checker.check_neg,
}

# Each expression class's type, through a handler like the commands'.
_EXPRS = {
    IntLit: lambda checker, e, seq_ctx: INT,
    CharLit: lambda checker, e, seq_ctx: CHAR,
    StringLit: lambda checker, e, seq_ctx: STRING,
    BoolLit: lambda checker, e, seq_ctx: BOOL,
    VarRef: Checker.var_type,
    StoreOf: Checker.store_type,
}
