"""Parser for the surface syntax: indentation-sensitive declarations of
processes, protocols, and coprotocols.

Layout follows the offside rule.  A block (the commands of a `do`, the
arms of `hcase`/`race`/`fork`, the branches of `plug`, the handle clauses
of a declaration) is a run of items that share a column strictly deeper
than the line that introduced them; the first shallower token closes the
block.  One generator, `Parser._block`, applies the rule to every kind of
block, from token columns rather than synthesized layout tokens; one
reader, `Parser._context`, reads the context line `seqs | ins => outs` of
a process's parameters and of a call's arguments.

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
    map_command, map_signature, map_type, pos_field, same_items,
)
from .services import BUILTIN_DECLS

DECL_KEYWORDS = {"proc", "protocol", "coprotocol"}
BUILTIN_SEQ = {"Int": INT_T, "Char": CHAR, "Bool": BOOL, "String": STRING_T}
BUILTIN_CHAN_HEADS = {"TopBot", "Put", "Get", "Neg", "Store"}
# Type parsing recurses two or three frames per level of brackets, so the
# depth is capped well inside Python's default recursion limit.
MAX_TYPE_DEPTH = 256
# The commands that may leave their channel to an enclosing `on` block.
OPTIONAL_CHAN = frozenset({PutVal, GetVal, HPut, HCase, Close, Halt, Fork,
                           Split})
BARE_COMMAND = ("this command needs a channel: write 'on <channel>' or "
                "wrap it in an 'on ... do' block")


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
        self.type_depth = 0     # brackets open in the type being parsed
        # Whether a command without a channel is an error: in a top-level
        # process, outside every `on` block.  Commands of an inline stored
        # process are left to the checker.
        self.chan_required = False
        # Whether the process being parsed holds an inline stored process.
        self.holds_inline = False
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

    # The token `expect` and `expect_ident` take is not EOF.

    def expect(self, text: str) -> Token:
        t = self.toks[self.i]
        if t.text != text or t.kind not in (KW, OP):
            raise ParseError(f"expected {text!r}, found "
                             f"{self._describe(t)}", t)
        self.i += 1
        return t

    def expect_ident(self, what: str = "name") -> Token:
        t = self.toks[self.i]
        if t.kind != IDENT:
            raise ParseError(f"expected {what}, found "
                             f"{self._describe(t)}", t)
        self.i += 1
        return t

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
        # id() of each process holding an inline stored process; `decls`
        # keeps them alive.
        holders: set[int] = set()
        while self.peek().kind != EOF:
            t = self.peek()
            if not self._at_decl(top_col):
                self._error(ParseError(
                    "expected a top-level declaration (proc, protocol, "
                    "or coprotocol)", t))
                self._recover(top_col)
                continue
            self.type_depth = 0
            self.chan_required = True
            self.holds_inline = False
            mark = len(self.errors)
            try:
                if t.text == "proc":
                    d = self.parse_proc()
                    if self.holds_inline:
                        holders.add(id(d))
                else:
                    d = self.parse_protocol()
                decls.append(d)
            except ParseError as e:
                # The bare commands of a declaration that fails are not
                # reported.
                del self.errors[mark:]
                self._error(e)
                self._recover(top_col)
        self._validate(decls)
        decls = _Resolver(decls, self.errors, holders).run()
        if self.errors:
            self.errors.sort(key=sort_key)
            raise ParseFailure(self.errors)
        return SourceProgram(tuple(decls))

    def _error(self, e: ParseError) -> None:
        self.errors.append(Diagnostic(PARSE_ERROR, e.pos, e.message))

    def _at_decl(self, top_col: int) -> bool:
        """Whether a declaration keyword at the top column is next (not a
        string literal that spells one)."""
        t = self.toks[self.i]
        return t.col == top_col and t.kind == KW and t.text in DECL_KEYWORDS

    def _recover(self, top_col: int) -> None:
        """Skip to the next declaration or EOF.  A failure can land exactly
        on the next declaration keyword; the declaration parsers always
        consume at least one token, so resuming there cannot loop."""
        while self.peek().kind != EOF and not self._at_decl(top_col):
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
        seq_params, in_params, out_params = self._context()
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
        handles = []
        for h in self._block(parent_indent,
                             "an indented block of handle clauses", IDENT):
            self.take()
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
                self._open_type()
                sig = self.parse_signature(")")
                self._close_type()
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
            self._open_type()
            inner = self.parse_chan_type()
            self._close_type()
            return inner
        if t.kind != IDENT:
            raise ParseError("expected a channel type", t)
        if t.text == "TopBot":
            self.take()
            return TOPBOT
        if t.text in ("Put", "Get"):
            self.take()
            self._open_type()
            msg = self.parse_seq_type()
            self.expect("|")
            rest = self.parse_chan_type()
            self._close_type()
            return Put(msg, rest) if t.text == "Put" else Get(msg, rest)
        if t.text == "Neg":
            self.take()
            self._open_type()
            inner = self.parse_chan_type()
            self._close_type()
            return NegT(inner)
        if t.text == "Store":
            raise ParseError("Store is a sequential type, not a channel "
                             "type", t)
        self.take()
        if self.at("("):
            self._open_type()
            args = self._comma_list(self.parse_seq_type, "|", ")")
            if self.at("|"):
                self.take()
                if not self.at(")"):
                    raise ParseError(
                        "channel-type parameters are not supported after "
                        "'|' in a protocol application", self.peek())
            self._close_type()
            return ChanName(t.text, args, pos=t.pos)
        return ChanName(t.text, None, pos=t.pos)

    def _open_type(self) -> None:
        """Read the '(' that opens a nested type."""
        t = self.expect("(")
        if self.type_depth == MAX_TYPE_DEPTH:
            raise ParseError(f"type nested more than {MAX_TYPE_DEPTH} "
                             f"levels deep", t)
        self.type_depth += 1

    def _close_type(self) -> None:
        self.expect(")")
        self.type_depth -= 1

    # -- layout -------------------------------------------------------------

    def _block(self, parent_indent: int, what: str, kind: str | None = None):
        """The offside rule: the block starts at the next token, which must
        sit deeper than `parent_indent`, and runs while items start at its
        column (with a token of `kind`, when given); EOF, at column 0, ends
        every block.  Yields each item's first token, unread, for the
        caller to parse in its own frame, so nesting adds no frame here."""
        t = self.toks[self.i]
        col = t.col
        if t.kind == EOF or col <= parent_indent:
            raise ParseError(f"expected {what}", t)
        while t.col == col and (kind is None or t.kind == kind):
            yield t
            t = self.toks[self.i]
            if t.col > col:
                raise ParseError(
                    f"unexpected {self._describe(t)}; expected the next "
                    f"item at column {col} or a dedent", t)

    def _context(self, seq_item=None) -> tuple:
        """The context line `seqs | ins => outs`, `=> outs` optional, as
        three tuples: a process's parameters, all names, or a call's
        arguments, whose sequential part is a list of `seq_item`s."""
        seqs = (self.parse_name_list() if seq_item is None
                else self._comma_list(seq_item, "|"))
        self.expect("|")
        ins = self.parse_name_list()
        outs: tuple[str, ...] = ()
        if self.at("=>"):
            self.take()
            outs = self.parse_name_list()
        return seqs, ins, outs

    # -- bodies and commands ------------------------------------------------

    def parse_body(self, parent_indent: int) -> tuple:
        if self.at("do"):
            self.take()
            return self.parse_command_block(parent_indent)
        return (self.parse_command(),)

    def parse_command_block(self, parent_indent: int) -> tuple:
        cmds = []
        for _ in self._block(parent_indent, "an indented block of commands"):
            cmds.append(self.parse_command())
        return tuple(cmds)

    def parse_command(self):
        t = self.toks[self.i]
        if t.kind == KW:
            handler = _COMMANDS.get(t.text)
            if handler is None:
                raise ParseError(f"{t.text!r} cannot start a command", t)
            cmd = handler(self, self.line_indent[t.line])
            # Checked here, once the handler has returned, so the check
            # costs no stack frame per level of nesting.
            if self.chan_required and type(cmd) in OPTIONAL_CHAN \
                    and cmd.chan is None:
                self.errors.append(Diagnostic(PARSE_ERROR, cmd.pos,
                                              BARE_COMMAND))
            return cmd
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
        return HCase(chan, self._arms(anchor, "handle", HCaseArm),
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
        arms = self._arms(anchor, "channel", ForkArm)
        if len(arms) != 2:
            raise ParseError("fork takes exactly two branches", kw)
        return Fork(chan, arms, pos=kw.pos)

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
        branches = []
        for t in self._block(anchor, "indented plug branches"):
            branches.append(self.parse_body(t.col))
        if len(branches) < 2:
            raise ParseError("plug needs at least two branches", kw)
        return Plug(tuple(branches), pos=kw.pos)

    def _cmd_race(self, anchor: int):
        kw = self.take()
        return Race(self._arms(anchor, "channel", RaceArm), pos=kw.pos)

    def _cmd_use(self, anchor: int):
        kw = self.take()
        self.expect("(")
        stored = self.parse_expr()
        self.expect(")")
        return Use(stored, *self._parse_call_args(), pos=kw.pos)

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
        outer, self.chan_required = self.chan_required, False
        cmds = self.parse_command_block(anchor)
        self.chan_required = outer
        return OnDo(chan.text, cmds, pos=kw.pos)

    def _parse_call(self) -> Call:
        name = self.take()
        return Call(name.text, *self._parse_call_args(), pos=name.pos)

    def _parse_call_args(self) -> tuple:
        self.expect("(")
        args = self._context(self.parse_expr)
        self.expect(")")
        return args

    def _arms(self, parent_indent: int, what: str, arm) -> tuple:
        """The block of `name -> body` arms of an hcase, fork or race, each
        built as `arm(name, body)`."""
        first = self.peek()
        arms = []
        for name in self._block(parent_indent, f"indented {what} arms",
                                IDENT):
            self.take()
            self.expect("->")
            arms.append(arm(name.text, self.parse_body(name.col),
                            pos=name.pos))
        if not arms:
            raise ParseError(f"expected at least one {what} arm", first)
        return tuple(arms)

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
                outer, self.chan_required = self.chan_required, False
                inner = self.parse_proc()
                self.chan_required = outer
                self.holds_inline = True
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
        # Processes, and protocols with coprotocols, are two namespaces.
        seen: set[tuple[type, str]] = set()
        for d in decls:
            key = (type(d), d.name)
            if key in seen:
                what = ("process definition" if key[0] is ProcDef
                        else "declaration")
                self.errors.append(Diagnostic(
                    PARSE_ERROR, d.pos, f"duplicate {what} {d.name!r}"))
            seen.add(key)


# `parse_command`'s handler for each command keyword.
_COMMANDS = {name[len("_cmd_"):]: f for name, f in vars(Parser).items()
             if name.startswith("_cmd_")}


class _Resolver:
    """Rewrites raw named type references into protocol/coprotocol
    applications, state variables, and declaration type parameters.
    Only the bodies of the processes in `holders` (by id) hold types, in
    their inline stored processes; the rest are kept as parsed."""

    def __init__(self, decls: list, errors: list[Diagnostic],
                 holders: set[int]):
        self.decls = decls
        self.errors = errors
        self.holders = holders
        self.scope = None
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
                out.append(self._resolve_proc(d, id(d) in self.holders))
        return out

    def _resolve_protocol(self, d: ProtocolDecl) -> ProtocolDecl:
        scope = (set(d.seq_params), d.state_var)
        handles = tuple(
            HandleDef(h.name, self._type(h.body, scope), pos=h.pos)
            for h in d.handles)
        return ProtocolDecl(d.name, d.kind, d.seq_params, d.state_var,
                            handles, pos=d.pos)

    def _resolve_proc(self, d: ProcDef, walk: bool = True) -> ProcDef:
        """`d` resolved; its body only when `walk`."""
        sig = (map_signature(d.signature, lambda t: self._type(t, None))
               if d.signature else None)
        body = self._body(d.body) if walk else d.body
        return ProcDef(d.name, sig, d.seq_params, d.in_params, d.out_params,
                       body, pos=d.pos)

    def _body(self, body: tuple) -> tuple:
        """`body` with the types of its inline stored processes resolved;
        `body` itself when it holds none."""
        out = tuple(map_command(cmd, self._body, self._expr) for cmd in body)
        return body if same_items(out, body) else out

    def _expr(self, e: Expr) -> Expr:
        if isinstance(e, StoreOf) and isinstance(e.target, ProcDef):
            target = self._resolve_proc(e.target)
            return e if target is e.target else StoreOf(target, pos=e.pos)
        return e

    def _type(self, t, scope):
        """Resolve the raw names in `t`.  `scope` holds a declaration's
        sequential parameters and state variable; None outside one."""
        outer, self.scope = self.scope, scope
        t = self._resolve(t)
        self.scope = outer
        return t

    def _resolve(self, t):
        """`_type` under `self.scope`.  A method, not a closure: a
        recursive closure is a reference cycle, left for the collector."""
        k, scope = type(t), self.scope
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
            args = tuple(map(self._resolve, t.args or ()))
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
        return map_type(t, self._resolve)


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
