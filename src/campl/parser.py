"""Parser for the surface syntax: indentation-sensitive declarations of
processes, protocols, and coprotocols.

Layout follows the offside rule.  A block (the commands of a `do`, the
arms of `hcase`/`race`/`fork`, the branches of `plug`, the handle clauses
of a declaration) is a run of items that share a column strictly deeper
than the line that introduced them; the first shallower token closes the
block.  The parser works directly from token columns rather than from
synthesized layout tokens.

A declaration-level error is recorded and parsing resumes at the next
top-level declaration keyword, so one pass reports every syntax error.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lexer
from .diagnostics import PARSE_ERROR, Diagnostic, ParseFailure, sort_key
from .lexer import CHARLIT, EOF, IDENT, INT, KW, OP, STRING, Token
from .model import (
    BOOL, CHAR, INT as INT_T, STRING as STRING_T, TOPBOT,
    BoolLit, Call, CharLit, Close, CoprotoApp, DeclKind, Expr, Fork, ForkArm,
    Get, GetVal, Halt, HandleDef, HCase, HCaseArm, HPut, IntLit, Link,
    NegIntro, NegT, OnDo, Par, Plug, Pos, ProcDef, ProcSignature, ProtoApp,
    ProtocolDecl, Put, PutVal, Race, RaceArm, SeqVar, Split, StateVar,
    StoreOf, StoreType, StringLit, SourceProgram, Tensor, Use, VarRef,
    map_command, map_signature, map_type, pos_field, sub_bodies,
)
from .services import BUILTIN_DECLS

DECL_KEYWORDS = {"proc", "protocol", "coprotocol"}
BUILTIN_SEQ = {"Int": INT_T, "Char": CHAR, "Bool": BOOL, "String": STRING_T}
BUILTIN_CHAN_HEADS = {"TopBot", "Put", "Get", "Neg", "Store"}


# Raw named type references; replaced during resolution.
@dataclass
class ChanName:
    name: str
    args: tuple | None   # None: bare name, tuple: applied
    pos: Pos = pos_field()


@dataclass
class SeqName:
    name: str
    pos: Pos = pos_field()


class ParseError(Exception):
    def __init__(self, message: str, tok: Token):
        super().__init__(f"{tok.line}:{tok.col}: {message}")
        self.message = message
        self.pos = tok.pos


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.errors: list[Diagnostic] = []
        # First-token column of every line, for body anchoring: the first
        # token of a line is written last.  EOF, at column 0, is kept only
        # on a line of its own, where it is its own anchor.
        self.line_indent = {t.line: t.col for t in reversed(tokens)}

    # -- token helpers ------------------------------------------------------
    # `take` never moves past EOF, the last token, so `self.i` is always a
    # valid index.

    def peek(self) -> Token:
        return self.toks[self.i]

    def at(self, text: str) -> bool:
        t = self.toks[self.i]
        return t.text == text and t.kind in (KW, OP)

    def at_kind(self, kind: str) -> bool:
        return self.toks[self.i].kind == kind

    def take(self) -> Token:
        t = self.toks[self.i]
        if t.kind != EOF:
            self.i += 1
        return t

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found "
                             f"{self._describe(self.peek())}", self.peek())
        return self.take()

    def expect_ident(self, what: str = "name") -> Token:
        if not self.at_kind(IDENT):
            raise ParseError(f"expected {what}, found "
                             f"{self._describe(self.peek())}", self.peek())
        return self.take()

    @staticmethod
    def _describe(t: Token) -> str:
        if t.kind == EOF:
            return "end of input"
        return repr(t.text)

    def anchor(self, tok: Token) -> int:
        return self.line_indent.get(tok.line, tok.col)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        decls = []
        if self.peek().kind == EOF:
            return SourceProgram(())
        top_col = self.peek().col
        while self.peek().kind != EOF:
            t = self.peek()
            if t.col != top_col or t.text not in DECL_KEYWORDS:
                self._error(ParseError(
                    "expected a top-level declaration (proc, protocol, "
                    "or coprotocol)", t))
                self._recover(top_col)
                continue
            try:
                if t.text == "proc":
                    decls.append(self.parse_proc())
                else:
                    decls.append(self.parse_protocol())
            except ParseError as e:
                self._error(e)
                self._recover(top_col)
        self._validate(decls)
        decls = _Resolver(decls, self.errors).run()
        if self.errors:
            self.errors.sort(key=sort_key)
            raise ParseFailure(self.errors)
        return SourceProgram(tuple(decls))

    def _error(self, e: ParseError) -> None:
        self.errors.append(Diagnostic(PARSE_ERROR, e.pos, e.message))

    def _recover(self, top_col: int) -> None:
        t = self.peek()
        # A failure can land exactly on the next declaration keyword; the
        # declaration parsers always consume at least one token, so
        # resuming there cannot loop.
        if t.kind != EOF and t.col == top_col and t.text in DECL_KEYWORDS:
            return
        self.take()
        while self.peek().kind != EOF:
            t = self.peek()
            if t.col == top_col and t.text in DECL_KEYWORDS:
                return
            self.take()

    # -- declarations -------------------------------------------------------

    def parse_proc(self) -> ProcDef:
        kw = self.expect("proc")
        name = self.expect_ident("process name")
        sig = None
        if self.at("::"):
            self.take()
            sig = self.parse_signature("=", EOF)
        self.expect("=")

        seq_params = self.parse_name_list()
        self.expect("|")
        in_params = self.parse_name_list()
        out_params: tuple[str, ...] = ()
        if self.at("=>"):
            self.take()
            out_params = self.parse_name_list()
        arrow = self.expect("->")
        body = self.parse_body(self.anchor(arrow))
        return ProcDef(name.text, sig, seq_params, in_params, out_params,
                       body, pos=kw.pos)

    def parse_name_list(self) -> tuple[str, ...]:
        names = []
        while self.at_kind(IDENT):
            names.append(self.take().text)
            if self.at(","):
                self.take()
            else:
                break
        return tuple(names)

    def parse_signature(self, *end: str) -> ProcSignature:
        """`seqs | ins => outs`, with the output list ending at one of
        `end`, which stays unread."""
        seqs = self._comma_list(self.parse_seq_type, "|")
        self.expect("|")
        ins = self._comma_list(self.parse_chan_type, "=>")
        self.expect("=>")
        return ProcSignature(seqs, ins,
                             self._comma_list(self.parse_chan_type, *end))

    def _comma_list(self, item, *stops: str) -> tuple:
        """`item`s separated by commas, up to a token whose text (keyword
        or operator) or kind is one of `stops`; that token stays unread."""
        items = []
        while True:
            t = self.peek()
            if t.kind in stops or (t.text in stops and t.kind in (KW, OP)):
                break
            items.append(item())
            if not self.at(","):
                break
            self.take()
        return tuple(items)

    def parse_protocol(self) -> ProtocolDecl:
        kw = self.take()   # protocol | coprotocol
        if kw.text == "protocol":
            name = self.expect_ident("protocol name")
            params = self._parse_type_params()
            self.expect("=>")
            state = self.expect_ident("state variable")
        else:
            state = self.expect_ident("state variable")
            self.expect("=>")
            name = self.expect_ident("coprotocol name")
            params = self._parse_type_params()
        eq = self.expect("=")
        kind = (DeclKind.PROTOCOL if kw.text == "protocol"
                else DeclKind.COPROTOCOL)
        handles = self._parse_handle_block(self.anchor(eq), kind, state.text)
        return ProtocolDecl(name.text, kind, params, state.text,
                            tuple(handles), pos=kw.pos)

    def _parse_type_params(self) -> tuple[str, ...]:
        self.expect("(")
        params = self.parse_name_list()
        self.expect("|")
        if not self.at(")"):
            raise ParseError("channel-type parameters are not supported; "
                             "only sequential parameters may appear before "
                             "the '|'", self.peek())
        self.take()
        return params

    def _parse_handle_block(self, parent_indent: int, kind: DeclKind,
                            state_var: str) -> list[HandleDef]:
        first = self.peek()
        if first.kind == EOF or first.col <= parent_indent:
            raise ParseError("expected an indented block of handle clauses",
                             first)
        col = first.col
        handles = []
        while self.peek().col == col and self.at_kind(IDENT):
            h = self.expect_ident("handle name")
            self.expect("::")
            if kind is DeclKind.PROTOCOL:
                body = self.parse_chan_type()
                self.expect("=>")
                sv = self.expect_ident("state variable")
            else:
                sv = self.expect_ident("state variable")
                self.expect("=>")
                body = self.parse_chan_type()
            if sv.text != state_var:
                raise ParseError(
                    f"handle clause must use the state variable "
                    f"{state_var!r}, found {sv.text!r}", sv)
            handles.append(HandleDef(h.text, body, pos=h.pos))
            self._block_guard(col)
        if not handles:
            raise ParseError("a declaration needs at least one handle "
                             "clause", first)
        return handles

    # -- types --------------------------------------------------------------

    def parse_seq_type(self):
        t = self.peek()
        if t.kind == IDENT:
            if t.text in BUILTIN_SEQ:
                self.take()
                return BUILTIN_SEQ[t.text]
            if t.text == "Store":
                self.take()
                self.expect("(")
                sig = self.parse_signature(")")
                self.expect(")")
                return StoreType(sig)
            self.take()
            return SeqName(t.text, pos=t.pos)
        if self.at("["):
            self.take()
            elem = self.expect_ident("element type")
            if elem.text != "Char":
                raise ParseError("only [Char] is a valid list type", elem)
            self.expect("]")
            return STRING_T
        raise ParseError("expected a sequential type", t)

    def parse_chan_type(self):
        left = self.parse_chan_atom()
        while self.at("(*)") or self.at("(+)"):
            op = self.take()
            right = self.parse_chan_atom()
            left = (Tensor(left, right) if op.text == "(*)"
                    else Par(left, right))
        return left

    def parse_chan_atom(self):
        t = self.peek()
        if self.at("("):
            self.take()
            inner = self.parse_chan_type()
            self.expect(")")
            return inner
        if t.kind != IDENT:
            raise ParseError("expected a channel type", t)
        if t.text == "TopBot":
            self.take()
            return TOPBOT
        if t.text in ("Put", "Get"):
            self.take()
            self.expect("(")
            msg = self.parse_seq_type()
            self.expect("|")
            rest = self.parse_chan_type()
            self.expect(")")
            return Put(msg, rest) if t.text == "Put" else Get(msg, rest)
        if t.text == "Neg":
            self.take()
            self.expect("(")
            inner = self.parse_chan_type()
            self.expect(")")
            return NegT(inner)
        if t.text == "Store":
            raise ParseError("Store is a sequential type, not a channel "
                             "type", t)
        self.take()
        if self.at("("):
            self.take()
            args = self._comma_list(self.parse_seq_type, "|", ")")
            if self.at("|"):
                self.take()
                if not self.at(")"):
                    raise ParseError(
                        "channel-type parameters are not supported after "
                        "'|' in a protocol application", self.peek())
            self.expect(")")
            return ChanName(t.text, args, pos=t.pos)
        return ChanName(t.text, None, pos=t.pos)

    # -- bodies and commands ------------------------------------------------

    def parse_body(self, parent_indent: int) -> tuple:
        if self.at("do"):
            self.take()
            return tuple(self.parse_command_block(parent_indent))
        return (self.parse_command(),)

    def parse_command_block(self, parent_indent: int) -> list:
        first = self.peek()
        if first.kind == EOF or first.col <= parent_indent:
            raise ParseError("expected an indented block of commands", first)
        col = first.col
        cmds = []
        while self.peek().kind != EOF and self.peek().col == col:
            cmds.append(self.parse_command())
            self._block_guard(col)
        return cmds

    def _block_guard(self, col: int) -> None:
        t = self.peek()
        if t.kind != EOF and t.col > col:
            raise ParseError(
                f"unexpected {self._describe(t)}; expected the next item at "
                f"column {col} or a dedent", t)

    def parse_command(self):
        t = self.peek()
        anchor = self.anchor(t)
        if t.kind == KW:
            handler = getattr(self, f"_cmd_{t.text}", None)
            if handler is not None:
                return handler(anchor)
            raise ParseError(f"{t.text!r} cannot start a command", t)
        if t.kind == IDENT:
            nxt = self.toks[self.i + 1]     # `t` is not EOF
            if nxt.text == "(" and nxt.kind == OP:
                return self._parse_call()
            if nxt.text == "|=|":
                a = self.take()
                self.take()
                b = self.expect_ident("channel")
                return Link(a.text, b.text, pos=a.pos)
        raise ParseError(f"expected a process command, found "
                         f"{self._describe(t)}", t)

    def _opt_on_chan(self) -> str | None:
        if self.at("on"):
            self.take()
            return self.expect_ident("channel").text
        return None

    def _opt_same_line_chan(self, kw: Token) -> str | None:
        t = self.peek()
        if t.kind == IDENT and t.line == kw.line:
            return self.take().text
        return None

    def _cmd_put(self, anchor: int):
        kw = self.take()
        expr = self.parse_expr()
        return PutVal(expr, self._opt_on_chan(), pos=kw.pos)

    def _cmd_get(self, anchor: int):
        kw = self.take()
        binder = self.expect_ident("binder")
        return GetVal(binder.text, self._opt_on_chan(), pos=kw.pos)

    def _cmd_hput(self, anchor: int):
        kw = self.take()
        handle = self.expect_ident("handle name")
        return HPut(handle.text, self._opt_on_chan(), pos=kw.pos)

    def _cmd_hcase(self, anchor: int):
        kw = self.take()
        chan = None
        if self.at_kind(IDENT):
            chan = self.take().text
        self.expect("of")
        arms = self._parse_arm_block(anchor, "handle")
        return HCase(chan, tuple(HCaseArm(n, b, pos=p) for n, b, p in arms),
                     pos=kw.pos)

    def _cmd_close(self, anchor: int):
        kw = self.take()
        return Close(self._opt_same_line_chan(kw), pos=kw.pos)

    def _cmd_halt(self, anchor: int):
        kw = self.take()
        return Halt(self._opt_same_line_chan(kw), pos=kw.pos)

    def _cmd_fork(self, anchor: int):
        kw = self.take()
        chan = None
        if self.at_kind(IDENT):
            chan = self.take().text
        self.expect("as")
        arms = self._parse_arm_block(anchor, "channel")
        if len(arms) != 2:
            raise ParseError("fork takes exactly two branches", kw)
        fa, fb = (ForkArm(n, b, pos=p) for n, b, p in arms)
        return Fork(chan, (fa, fb), pos=kw.pos)

    def _cmd_split(self, anchor: int):
        kw = self.take()
        chan = None
        if self.at_kind(IDENT):
            chan = self.take().text
        self.expect("into")
        left = self.expect_ident("channel")
        self.expect(",")
        right = self.expect_ident("channel")
        return Split(chan, left.text, right.text, pos=kw.pos)

    def _cmd_plug(self, anchor: int):
        kw = self.take()
        first = self.peek()
        if first.kind == EOF or first.col <= anchor:
            raise ParseError("expected indented plug branches", first)
        col = first.col
        branches = []
        while self.peek().kind != EOF and self.peek().col == col:
            branches.append(self.parse_body(col))
            self._block_guard(col)
        if len(branches) < 2:
            raise ParseError("plug needs at least two branches", kw)
        return Plug(tuple(branches), pos=kw.pos)

    def _cmd_race(self, anchor: int):
        kw = self.take()
        arms = self._parse_arm_block(anchor, "channel")
        return Race(tuple(RaceArm(n, b, pos=p) for n, b, p in arms),
                    pos=kw.pos)

    def _cmd_use(self, anchor: int):
        kw = self.take()
        self.expect("(")
        stored = self.parse_expr()
        self.expect(")")
        seq_args, ins, outs = self._parse_call_args()
        return Use(stored, seq_args, ins, outs, pos=kw.pos)

    def _cmd_neg(self, anchor: int):
        kw = self.take()
        chan = self.expect_ident("channel")
        self.expect("as")
        fresh = self.expect_ident("channel")
        return NegIntro(chan.text, fresh.text, pos=kw.pos)

    def _cmd_on(self, anchor: int):
        kw = self.take()
        chan = self.expect_ident("channel")
        self.expect("do")
        cmds = self.parse_command_block(anchor)
        return OnDo(chan.text, tuple(cmds), pos=kw.pos)

    def _parse_call(self) -> Call:
        name = self.take()
        seq_args, ins, outs = self._parse_call_args()
        return Call(name.text, seq_args, ins, outs, pos=name.pos)

    def _parse_call_args(self):
        self.expect("(")
        seq_args = self._comma_list(self.parse_expr, "|")
        self.expect("|")
        ins = self.parse_name_list()
        outs: tuple[str, ...] = ()
        if self.at("=>"):
            self.take()
            outs = self.parse_name_list()
        self.expect(")")
        return seq_args, ins, outs

    def _parse_arm_block(self, parent_indent: int, what: str):
        first = self.peek()
        if first.kind == EOF or first.col <= parent_indent:
            raise ParseError(f"expected indented {what} arms", first)
        col = first.col
        arms = []
        while self.peek().kind != EOF and self.peek().col == col \
                and self.at_kind(IDENT):
            name = self.take()
            self.expect("->")
            body = self.parse_body(col)
            arms.append((name.text, body, name.pos))
            self._block_guard(col)
        if not arms:
            raise ParseError(f"expected at least one {what} arm", first)
        return arms

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        # Parentheses are counted, not recursed into, so no nesting depth
        # can exhaust the stack.
        depth = 0
        while self.at("("):
            self.take()
            depth += 1
        expr = self._parse_atom()
        for _ in range(depth):
            self.expect(")")
        return expr

    def _parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == INT:
            self.take()
            return IntLit(int(t.text), pos=t.pos)
        if t.kind == STRING:
            self.take()
            return StringLit(t.text, pos=t.pos)
        if t.kind == CHARLIT:
            self.take()
            return CharLit(t.text, pos=t.pos)
        if t.kind == KW and t.text == "store":
            self.take()
            self.expect("(")
            if self.at("proc"):
                inner = self.parse_proc()
                if inner.signature is None:
                    raise ParseError("an inline stored process needs a "
                                     "type signature", t)
                self.expect(")")
                return StoreOf(inner, pos=t.pos)
            name = self.expect_ident("process name")
            self.expect(")")
            return StoreOf(name.text, pos=t.pos)
        if t.kind == IDENT:
            self.take()
            if t.text == "True":
                return BoolLit(True, pos=t.pos)
            if t.text == "False":
                return BoolLit(False, pos=t.pos)
            return VarRef(t.text, pos=t.pos)
        raise ParseError(f"expected an expression, found "
                         f"{self._describe(t)}", t)

    # -- post-parse validation ---------------------------------------------

    def _validate(self, decls: list) -> None:
        seen_procs: dict[str, Pos] = {}
        seen_protos: dict[str, Pos] = {}
        for d in decls:
            if isinstance(d, ProcDef):
                if d.name in seen_procs:
                    self.errors.append(Diagnostic(
                        PARSE_ERROR, d.pos,
                        f"duplicate process definition {d.name!r}"))
                seen_procs[d.name] = d.pos
                _check_bare_commands(d.body, False, self.errors)
            else:
                if d.name in seen_protos:
                    self.errors.append(Diagnostic(
                        PARSE_ERROR, d.pos,
                        f"duplicate declaration {d.name!r}"))
                seen_protos[d.name] = d.pos


def _check_bare_commands(body: tuple, inside_on: bool,
                         errors: list[Diagnostic]) -> None:
    for cmd in body:
        if not inside_on and getattr(cmd, "chan", "n/a") is None:
            errors.append(Diagnostic(
                PARSE_ERROR, cmd.pos,
                "this command needs a channel: write 'on <channel>' or "
                "wrap it in an 'on ... do' block"))
        for sub in sub_bodies(cmd):
            _check_bare_commands(sub, inside_on or type(cmd) is OnDo, errors)


class _Resolver:
    """Rewrites raw named type references into protocol/coprotocol
    applications, state variables, and declaration type parameters."""

    def __init__(self, decls: list, errors: list[Diagnostic]):
        self.decls = decls
        self.errors = errors
        self.table: dict[str, ProtocolDecl] = dict(BUILTIN_DECLS)
        for d in decls:
            if isinstance(d, ProtocolDecl) and d.name not in self.table:
                self.table[d.name] = d

    def run(self) -> list:
        out = []
        for d in self.decls:
            if isinstance(d, ProtocolDecl):
                out.append(self._resolve_protocol(d))
            else:
                out.append(self._resolve_proc(d))
        return out

    def _resolve_protocol(self, d: ProtocolDecl) -> ProtocolDecl:
        scope = (set(d.seq_params), d.state_var)
        handles = tuple(
            HandleDef(h.name, self._type(h.body, scope), pos=h.pos)
            for h in d.handles)
        return ProtocolDecl(d.name, d.kind, d.seq_params, d.state_var,
                            handles, pos=d.pos)

    def _resolve_proc(self, d: ProcDef) -> ProcDef:
        sig = (map_signature(d.signature, lambda t: self._type(t, None))
               if d.signature else None)
        body = self._body(d.body)
        return ProcDef(d.name, sig, d.seq_params, d.in_params, d.out_params,
                       body, pos=d.pos)

    def _body(self, body: tuple) -> tuple:
        return tuple(map_command(cmd, self._body, self._expr) for cmd in body)

    def _expr(self, e: Expr) -> Expr:
        if isinstance(e, StoreOf) and isinstance(e.target, ProcDef):
            return StoreOf(self._resolve_proc(e.target), pos=e.pos)
        return e

    def _type(self, t, scope):
        """Resolve the raw names in `t`.  `scope` holds a declaration's
        sequential parameters and state variable; None outside one."""
        def go(t):
            k = type(t)
            if k is SeqName:
                if scope is not None and t.name in scope[0]:
                    return SeqVar(t.name)
                self.errors.append(Diagnostic(
                    PARSE_ERROR, t.pos,
                    f"unknown sequential type {t.name!r}"))
                return SeqVar(t.name)
            if k is ChanName:
                if scope is not None and t.args is None \
                        and t.name == scope[1]:
                    return StateVar(t.name)
                decl = self.table.get(t.name)
                if decl is None:
                    self.errors.append(Diagnostic(
                        PARSE_ERROR, t.pos,
                        f"unknown channel type {t.name!r}"))
                    return ProtoApp(t.name, ())
                args = tuple(map(go, t.args or ()))
                if len(args) != len(decl.seq_params):
                    self.errors.append(Diagnostic(
                        PARSE_ERROR, t.pos,
                        f"{t.name} expects {len(decl.seq_params)} type "
                        f"argument(s), got {len(args)}"))
                ctor = (ProtoApp if decl.kind is DeclKind.PROTOCOL
                        else CoprotoApp)
                return ctor(t.name, args)
            if k is StoreType and scope is not None:
                # A stored process's signature cannot see the declaration's
                # parameters.
                return self._type(t, None)
            return map_type(t, go)
        return go(t)


def parse_program(tokens: list[Token]) -> SourceProgram:
    """Parse a token stream into a resolved program.  Raises ParseFailure
    carrying every collected syntax error."""
    return Parser(tokens).parse_program()


def parse_source(source: str) -> SourceProgram:
    """Tokenize and parse in one step."""
    try:
        toks = lexer.tokenize(source)
    except lexer.LexError as e:
        raise ParseFailure([Diagnostic("LexError", e.pos, e.message)])
    return parse_program(toks)
