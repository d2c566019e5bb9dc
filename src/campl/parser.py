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

from . import lexer
from .diagnostics import (
    LEX_ERROR, PARSE_ERROR, Diagnostic, ParseFailure, sort_key,
)
from .lexer import CHARLIT, EOF, IDENT, INT, KW, OP, STRING
from .model import (
    BOOL, CHAR, INT as INT_T, STRING as STRING_T, TOPBOT, WITH_CHAN, Arm,
    BoolLit, Call, CharLit, Close, CoprotoApp, DeclKind, Expr, Fork, Get,
    GetVal, Halt, HandleDef, HCase, HPut, IntLit, Link, NegIntro, NegT, OnDo,
    Par, Plug, Pos, ProcDef, ProcSignature, ProtoApp, ProtocolDecl, Put,
    PutVal, Race, SeqVar, Split, StateVar, StoreOf, StoreType, StringLit,
    SourceProgram, Tensor, Use, VarRef, map_signature, map_type, record,
)
from .services import BUILTIN_DECLS

DECL_KEYWORDS = {"proc", "protocol", "coprotocol"}
BUILTIN_SEQ = {"Int": INT_T, "Char": CHAR, "Bool": BOOL, "String": STRING_T}
# Type parsing recurses two or three frames per level of brackets, so the
# depth is capped well inside Python's default recursion limit.
MAX_TYPE_DEPTH = 256
BARE_COMMAND = ("this command needs a channel: write 'on <channel>' or "
                "wrap it in an 'on ... do' block")


# Raw named type references; replaced during resolution.
@record(pos=True)
class ChanName:
    name: str
    args: tuple | None   # None: bare name, tuple: applied


@record(pos=True)
class SeqName:
    name: str


class ParseError(Exception):
    def __init__(self, message: str, tok: tuple):
        super().__init__(f"{tok[2]}:{tok[3]}: {message}")
        self.message = message
        self.pos = Pos(tok[2], tok[3])


class Parser:
    def __init__(self, tokens: list[tuple]):
        self.toks = tokens
        self.i = 0
        self.errors: list[Diagnostic] = []
        self.type_depth = 0     # brackets open in the type being parsed
        # Whether a command without a channel is an error: in a top-level
        # process, outside every `on` block.  Commands of an inline stored
        # process are left to the checker.
        self.chan_required = False
        # Every node that holds types, in the order it was built: each
        # protocol or coprotocol, and each process with a signature, top
        # level or inline.
        self.typed: list = []
        # First-token column of every line, for body anchoring: the first
        # token of a line is written last.  EOF, at column 0, is kept only
        # on a line of its own, where it is its own anchor.
        self.line_indent = {line: col for _, _, line, col in reversed(tokens)}

    # -- token helpers ------------------------------------------------------
    # A token is the lexer's `(kind, text, line, col)` tuple, read by index
    # or unpacked; a node's `Pos` is built from its line and column.
    # `take` never moves past EOF, the last token, so `self.i` is always a
    # valid index.

    def peek(self) -> tuple:
        return self.toks[self.i]

    def at(self, text: str) -> bool:
        t = self.toks[self.i]
        return t[1] == text and t[0] in (KW, OP)

    def take(self) -> tuple:
        t = self.toks[self.i]
        if t[0] != EOF:
            self.i += 1
        return t

    # The token `expect` and `expect_ident` take is not EOF.

    def expect(self, text: str) -> tuple:
        t = self.toks[self.i]
        if t[1] != text or t[0] not in (KW, OP):
            raise ParseError(f"expected {text!r}, found "
                             f"{self._describe(t)}", t)
        self.i += 1
        return t

    def expect_ident(self, what: str = "name") -> tuple:
        t = self.toks[self.i]
        if t[0] != IDENT:
            raise ParseError(f"expected {what}, found "
                             f"{self._describe(t)}", t)
        self.i += 1
        return t

    @staticmethod
    def _describe(t: tuple) -> str:
        if t[0] == EOF:
            return "end of input"
        return repr(t[1])

    def anchor(self, tok: tuple) -> int:
        return self.line_indent.get(tok[2], tok[3])

    # -- program ------------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        decls = []
        if self.peek()[0] == EOF:
            return SourceProgram(())
        top_col = self.peek()[3]
        while self.peek()[0] != EOF:
            t = self.peek()
            if not self._at_decl(top_col):
                self._error(ParseError(
                    "expected a top-level declaration (proc, protocol, "
                    "or coprotocol)", t))
                self._recover(top_col)
                continue
            self.type_depth = 0
            self.chan_required = True
            mark, typed_mark = len(self.errors), len(self.typed)
            try:
                d = (self.parse_proc() if t[1] == "proc"
                     else self.parse_protocol())
                if type(d) is ProtocolDecl or d.signature is not None:
                    self.typed.append(d)
                decls.append(d)
            except ParseError as e:
                # The bare commands and the typed nodes of a declaration
                # that fails are dropped.
                del self.errors[mark:]
                del self.typed[typed_mark:]
                self._error(e)
                self._recover(top_col)
        self._validate(decls)
        _Resolver(self.typed, self.errors).resolve()
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
        return t[3] == top_col and t[0] == KW and t[1] in DECL_KEYWORDS

    def _recover(self, top_col: int) -> None:
        """Skip to the next declaration or EOF.  A failure can land exactly
        on the next declaration keyword; the declaration parsers always
        consume at least one token, so resuming there cannot loop."""
        while self.peek()[0] != EOF and not self._at_decl(top_col):
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
        return ProcDef(name[1], sig, seq_params, in_params, out_params,
                       body, pos=Pos(kw[2], kw[3]))

    def parse_name_list(self) -> tuple[str, ...]:
        # An identifier or a comma is never EOF, so the index after one is
        # a token.
        toks, i = self.toks, self.i
        names = []
        while toks[i][0] == IDENT:
            names.append(toks[i][1])
            i += 1
            if toks[i][1] != "," or toks[i][0] != OP:
                break
            i += 1
        self.i = i
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
            if t[0] in stops or (t[1] in stops and t[0] in (KW, OP)):
                break
            items.append(item())
            if not self.at(","):
                break
            self.take()
        return tuple(items)

    def parse_protocol(self) -> ProtocolDecl:
        kw = self.take()   # protocol | coprotocol
        if kw[1] == "protocol":
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
        kind = (DeclKind.PROTOCOL if kw[1] == "protocol"
                else DeclKind.COPROTOCOL)
        handles = self._parse_handle_block(self.anchor(eq), kind, state[1])
        return ProtocolDecl(name[1], kind, params, state[1],
                            tuple(handles), pos=Pos(kw[2], kw[3]))

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
            if sv[1] != state_var:
                raise ParseError(
                    f"handle clause must use the state variable "
                    f"{state_var!r}, found {sv[1]!r}", sv)
            handles.append(HandleDef(h[1], body, pos=Pos(h[2], h[3])))
        if not handles:
            raise ParseError("a declaration needs at least one handle "
                             "clause", first)
        return handles

    # -- types --------------------------------------------------------------

    def parse_seq_type(self):
        t = self.peek()
        kind, text, line, col = t
        if kind == IDENT:
            if text in BUILTIN_SEQ:
                self.take()
                return BUILTIN_SEQ[text]
            if text == "Store":
                self.take()
                self._open_type()
                sig = self.parse_signature(")")
                self._close_type()
                return StoreType(sig)
            self.take()
            return SeqName(text, pos=Pos(line, col))
        if self.at("["):
            self.take()
            elem = self.expect_ident("element type")
            if elem[1] != "Char":
                raise ParseError("only [Char] is a valid list type", elem)
            self.expect("]")
            return STRING_T
        raise ParseError("expected a sequential type", t)

    def parse_chan_type(self):
        left = self.parse_chan_atom()
        while self.at("(*)") or self.at("(+)"):
            op = self.take()
            right = self.parse_chan_atom()
            left = (Tensor(left, right) if op[1] == "(*)"
                    else Par(left, right))
        return left

    def parse_chan_atom(self):
        t = self.peek()
        kind, text, line, col = t
        if self.at("("):
            self._open_type()
            inner = self.parse_chan_type()
            self._close_type()
            return inner
        if kind != IDENT:
            raise ParseError("expected a channel type", t)
        if text == "TopBot":
            self.take()
            return TOPBOT
        if text in ("Put", "Get"):
            self.take()
            self._open_type()
            msg = self.parse_seq_type()
            self.expect("|")
            rest = self.parse_chan_type()
            self._close_type()
            return Put(msg, rest) if text == "Put" else Get(msg, rest)
        if text == "Neg":
            self.take()
            self._open_type()
            inner = self.parse_chan_type()
            self._close_type()
            return NegT(inner)
        if text == "Store":
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
            return ChanName(text, args, pos=Pos(line, col))
        return ChanName(text, None, pos=Pos(line, col))

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
        col = t[3]
        if t[0] == EOF or col <= parent_indent:
            raise ParseError(f"expected {what}", t)
        while t[3] == col and (kind is None or t[0] == kind):
            yield t
            t = self.toks[self.i]
            if t[3] > col:
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
        t = self.toks[self.i]
        if t[1] == "do" and t[0] == KW:
            self.i += 1
            return self.parse_command_block(parent_indent)
        return (self.parse_command(),)

    def parse_command_block(self, parent_indent: int) -> tuple:
        cmds = []
        for _ in self._block(parent_indent, "an indented block of commands"):
            cmds.append(self.parse_command())
        return tuple(cmds)

    def parse_command(self):
        t = self.toks[self.i]
        if t[0] == KW:
            handler = _COMMANDS.get(t[1])
            if handler is None:
                raise ParseError(f"{t[1]!r} cannot start a command", t)
            self.i += 1
            cmd = handler(self, t, self.line_indent[t[2]])
            # Checked here, once the handler has returned, so the check
            # costs no stack frame per level of nesting.
            if self.chan_required and type(cmd) in WITH_CHAN \
                    and cmd.chan is None:
                self.errors.append(Diagnostic(PARSE_ERROR, cmd.pos,
                                              BARE_COMMAND))
            return cmd
        if t[0] == IDENT:
            nxt = self.toks[self.i + 1]     # `t` is not EOF
            if nxt[1] == "(" and nxt[0] == OP:
                return self._parse_call()
            if nxt[1] == "|=|":
                a = self.take()
                self.take()
                b = self.expect_ident("channel")
                return Link(a[1], b[1], pos=Pos(a[2], a[3]))
        raise ParseError(f"expected a process command, found "
                         f"{self._describe(t)}", t)

    def _opt_on_chan(self) -> str | None:
        t = self.toks[self.i]
        if t[1] == "on" and t[0] == KW:
            self.i += 1
            return self.expect_ident("channel")[1]
        return None

    def _opt_same_line_chan(self, kw: tuple) -> str | None:
        t = self.toks[self.i]
        if t[0] == IDENT and t[2] == kw[2]:
            self.i += 1
            return t[1]
        return None

    def _cmd_put(self, kw: tuple, anchor: int):
        expr = self.parse_expr()
        return PutVal(expr, self._opt_on_chan(), pos=Pos(kw[2], kw[3]))

    def _cmd_get(self, kw: tuple, anchor: int):
        binder = self.expect_ident("binder")
        return GetVal(binder[1], self._opt_on_chan(), pos=Pos(kw[2], kw[3]))

    def _cmd_hput(self, kw: tuple, anchor: int):
        handle = self.expect_ident("handle name")
        return HPut(handle[1], self._opt_on_chan(), pos=Pos(kw[2], kw[3]))

    def _opt_chan_before(self, word: str) -> str | None:
        """The channel an hcase, fork or split may name before `word`."""
        t = self.toks[self.i]
        if t[0] == IDENT:
            self.i += 1
        self.expect(word)
        return t[1] if t[0] == IDENT else None

    def _cmd_hcase(self, kw: tuple, anchor: int):
        chan = self._opt_chan_before("of")
        return HCase(chan, self._arms(anchor, "handle"),
                     pos=Pos(kw[2], kw[3]))

    def _cmd_close(self, kw: tuple, anchor: int):
        return Close(self._opt_same_line_chan(kw), pos=Pos(kw[2], kw[3]))

    def _cmd_halt(self, kw: tuple, anchor: int):
        return Halt(self._opt_same_line_chan(kw), pos=Pos(kw[2], kw[3]))

    def _cmd_fork(self, kw: tuple, anchor: int):
        chan = self._opt_chan_before("as")
        arms = self._arms(anchor, "channel")
        if len(arms) != 2:
            raise ParseError("fork takes exactly two branches", kw)
        return Fork(chan, arms, pos=Pos(kw[2], kw[3]))

    def _cmd_split(self, kw: tuple, anchor: int):
        chan = self._opt_chan_before("into")
        left = self.expect_ident("channel")
        self.expect(",")
        right = self.expect_ident("channel")
        return Split(chan, left[1], right[1], pos=Pos(kw[2], kw[3]))

    def _cmd_plug(self, kw: tuple, anchor: int):
        branches = []
        for t in self._block(anchor, "indented plug branches"):
            branches.append(self.parse_body(t[3]))
        if len(branches) < 2:
            raise ParseError("plug needs at least two branches", kw)
        return Plug(tuple(branches), pos=Pos(kw[2], kw[3]))

    def _cmd_race(self, kw: tuple, anchor: int):
        return Race(self._arms(anchor, "channel"),
                    pos=Pos(kw[2], kw[3]))

    def _cmd_use(self, kw: tuple, anchor: int):
        self.expect("(")
        stored = self.parse_expr()
        self.expect(")")
        return Use(stored, *self._parse_call_args(), pos=Pos(kw[2], kw[3]))

    def _cmd_neg(self, kw: tuple, anchor: int):
        chan = self.expect_ident("channel")
        self.expect("as")
        fresh = self.expect_ident("channel")
        return NegIntro(chan[1], fresh[1], pos=Pos(kw[2], kw[3]))

    def _cmd_on(self, kw: tuple, anchor: int):
        chan = self.expect_ident("channel")
        self.expect("do")
        outer, self.chan_required = self.chan_required, False
        cmds = self.parse_command_block(anchor)
        self.chan_required = outer
        return OnDo(chan[1], cmds, pos=Pos(kw[2], kw[3]))

    def _parse_call(self) -> Call:
        name = self.take()
        return Call(name[1], *self._parse_call_args(),
                    pos=Pos(name[2], name[3]))

    def _parse_call_args(self) -> tuple:
        self.expect("(")
        args = self._context(self.parse_expr)
        self.expect(")")
        return args

    def _arms(self, parent_indent: int, what: str) -> tuple:
        """The block of `label -> body` arms of an hcase, fork or race."""
        first = self.peek()
        arms = []
        for name in self._block(parent_indent, f"indented {what} arms",
                                IDENT):
            self.take()
            self.expect("->")
            arms.append(Arm(name[1], self.parse_body(name[3]),
                            pos=Pos(name[2], name[3])))
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
        kind, text, line, col = t
        if kind == INT:
            self.take()
            return IntLit(int(text), pos=Pos(line, col))
        if kind == STRING:
            self.take()
            return StringLit(text, pos=Pos(line, col))
        if kind == CHARLIT:
            self.take()
            return CharLit(text, pos=Pos(line, col))
        if kind == KW and text == "store":
            self.take()
            self.expect("(")
            if self.at("proc"):
                outer, self.chan_required = self.chan_required, False
                inner = self.parse_proc()
                self.chan_required = outer
                if inner.signature is None:
                    raise ParseError("an inline stored process needs a "
                                     "type signature", t)
                self.typed.append(inner)
                self.expect(")")
                return StoreOf(inner, pos=Pos(line, col))
            name = self.expect_ident("process name")
            self.expect(")")
            return StoreOf(name[1], pos=Pos(line, col))
        if kind == IDENT:
            self.take()
            if text == "True":
                return BoolLit(True, pos=Pos(line, col))
            if text == "False":
                return BoolLit(False, pos=Pos(line, col))
            return VarRef(text, pos=Pos(line, col))
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
    applications, state variables, and declaration type parameters.  It
    sets, in place, each handle body of a declaration and the signature of
    each process, top-level or inline stored, in `typed`; no process body
    is walked.  Nodes change only here, inside `parse_program` before it
    returns, so every node a caller sees is the immutable value `model`
    promises."""

    def __init__(self, typed: list, errors: list[Diagnostic]):
        self.typed = typed
        self.errors = errors
        self.scope = None
        self.table: dict[str, ProtocolDecl] = dict(BUILTIN_DECLS)
        for d in typed:
            if type(d) is ProtocolDecl and d.name not in self.table:
                self.table[d.name] = d

    def resolve(self) -> None:
        for d in self.typed:
            if type(d) is ProcDef:
                d.signature = map_signature(d.signature, self._resolve)
                continue
            scope = (set(d.seq_params), d.state_var)
            for h in d.handles:
                h.body = self._type(h.body, scope)

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


def parse_program(tokens: list[tuple]) -> SourceProgram:
    """Parse a token stream into a resolved program.  Raises ParseFailure
    carrying every collected syntax error."""
    return Parser(tokens).parse_program()


def parse_source(source: str) -> SourceProgram:
    """Tokenize and parse in one step."""
    try:
        toks = lexer.tokenize(source)
    except lexer.LexError as e:
        raise ParseFailure([Diagnostic(LEX_ERROR, e.pos, e.message)])
    return parse_program(toks)
