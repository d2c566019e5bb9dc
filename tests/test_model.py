import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import campl
from campl import model
from campl.diagnostics import Diagnostic
from campl.elaborate import ExecProgram
from campl.model import (
    BOOL, CHAR, INPUT, INT, NO_POS, OUTPUT, STRING, TOPBOT, Arm, Call, Close,
    CoprotoApp, DeclKind, Get, GetVal, Halt, HandleDef, IntLit, NegT, Par,
    Pos, ProcDef, ProcSignature, ProtoApp, ProtocolDecl, Put, PutVal,
    SeqUVar, SeqVar, SourceProgram, StateVar, StoreType, Tensor,
    UnknownHandle, Use, UVar, VarRef, allowed_commands, unfold_handle,
)
from campl.runtime import (
    EndState, Outcome, OutcomeKind, StoredProc, TraceEvent,
)
from campl.services import ServiceConfig

PASS_MESSAGES = ProtocolDecl(
    name="PassMessages", kind=DeclKind.PROTOCOL, seq_params=("A",),
    state_var="S",
    handles=(
        HandleDef("SendMsg", Put(SeqVar("A"), StateVar("S"))),
        HandleDef("CloseCh", TOPBOT),
    ),
)

CO_PASS_MESSAGES = ProtocolDecl(
    name="CoPassMessages", kind=DeclKind.COPROTOCOL, seq_params=("A",),
    state_var="S",
    handles=(
        HandleDef("CoSendMsg", Get(SeqVar("A"), StateVar("S"))),
        HandleDef("CoCloseCh", TOPBOT),
    ),
)


# ---------------------------------------------------------------------------
# the command permission matrix

MATRIX = [
    (TOPBOT, OUTPUT, {"close", "halt"}),
    (TOPBOT, INPUT, {"close", "halt"}),
    (Put(STRING, TOPBOT), OUTPUT, {"put"}),
    (Put(STRING, TOPBOT), INPUT, {"get"}),
    (Get(INT, TOPBOT), OUTPUT, {"get"}),
    (Get(INT, TOPBOT), INPUT, {"put"}),
    (Tensor(TOPBOT, TOPBOT), OUTPUT, {"fork"}),
    (Tensor(TOPBOT, TOPBOT), INPUT, {"split"}),
    (Par(TOPBOT, TOPBOT), OUTPUT, {"split"}),
    (Par(TOPBOT, TOPBOT), INPUT, {"fork"}),
    (ProtoApp("PassMessages", (STRING,)), OUTPUT, {"hput"}),
    (ProtoApp("PassMessages", (STRING,)), INPUT, {"hcase"}),
    (CoprotoApp("CoPassMessages", (INT,)), OUTPUT, {"hcase"}),
    (CoprotoApp("CoPassMessages", (INT,)), INPUT, {"hput"}),
    (NegT(TOPBOT), OUTPUT, {"neg", "|=|"}),
    (NegT(TOPBOT), INPUT, {"neg", "|=|"}),
]


@pytest.mark.parametrize("t,pol,expected", MATRIX,
                         ids=[f"{t}@{p}" for t, p, _ in MATRIX])
def test_allowed_commands_matrix(t, pol, expected):
    assert allowed_commands(t, pol) == frozenset(expected)


COMPLEMENTS = {
    frozenset({"close", "halt"}): frozenset({"close", "halt"}),
    frozenset({"put"}): frozenset({"get"}),
    frozenset({"get"}): frozenset({"put"}),
    frozenset({"fork"}): frozenset({"split"}),
    frozenset({"split"}): frozenset({"fork"}),
    frozenset({"hput"}): frozenset({"hcase"}),
    frozenset({"hcase"}): frozenset({"hput"}),
    frozenset({"neg", "|=|"}): frozenset({"neg", "|=|"}),
}


# ---------------------------------------------------------------------------
# random channel types for property tests

seq_types = st.sampled_from([INT, CHAR, BOOL, STRING])


def chan_types(depth: int = 3):
    base = st.sampled_from([
        TOPBOT,
        ProtoApp("PassMessages", (STRING,)),
        CoprotoApp("CoPassMessages", (INT,)),
    ])
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(Put, seq_types, sub),
            st.builds(Get, seq_types, sub),
            st.builds(Tensor, sub, sub),
            st.builds(Par, sub, sub),
            st.builds(NegT, sub),
        ),
        max_leaves=8,
    )


@given(chan_types())
def test_both_ends_form_a_complement_pair(t):
    a = allowed_commands(t, OUTPUT)
    b = allowed_commands(t, INPUT)
    assert COMPLEMENTS[a] == b


@given(chan_types())
def test_type_equal_reflexive(t):
    assert t == t


@given(chan_types(), chan_types())
def test_type_equal_symmetric(a, b):
    assert (a == b) == (b == a)


@given(chan_types(), chan_types(), chan_types())
@settings(max_examples=60)
def test_type_equal_transitive(a, b, c):
    if a == b and b == c:
        assert a == c


def test_type_equal_examples():
    assert TOPBOT == TOPBOT
    assert Put(STRING, TOPBOT) != Get(STRING, TOPBOT)
    # Iso-recursion: a folded application is not its unfolding.
    folded = ProtoApp("PassMessages", (STRING,))
    unfolded = Put(STRING, folded)
    assert folded != unfolded


# ---------------------------------------------------------------------------
# handle unfolding

def test_unfold_send_handle():
    app = ProtoApp("PassMessages", (STRING,))
    got = unfold_handle(PASS_MESSAGES, "SendMsg", app)
    assert got == Put(STRING, app)


def test_unfold_close_handle():
    app = ProtoApp("PassMessages", (STRING,))
    assert unfold_handle(PASS_MESSAGES, "CloseCh", app) == TOPBOT


def test_unfold_coprotocol_handle():
    app = CoprotoApp("CoPassMessages", (INT,))
    got = unfold_handle(CO_PASS_MESSAGES, "CoSendMsg", app)
    assert got == Get(INT, app)


def test_unfold_unknown_handle():
    app = ProtoApp("PassMessages", (STRING,))
    with pytest.raises(UnknownHandle):
        unfold_handle(PASS_MESSAGES, "Nope", app)


def _mentions_decl_vars(t) -> bool:
    if isinstance(t, (StateVar, SeqVar)):
        return True
    if isinstance(t, (Put, Get)):
        return _mentions_decl_vars(t.msg) or _mentions_decl_vars(t.rest)
    if isinstance(t, (Tensor, Par)):
        return _mentions_decl_vars(t.left) or _mentions_decl_vars(t.right)
    if isinstance(t, NegT):
        return _mentions_decl_vars(t.inner)
    if isinstance(t, (ProtoApp, CoprotoApp)):
        return any(_mentions_decl_vars(a) for a in t.args)
    return False


@given(seq_types, st.sampled_from(["SendMsg", "CloseCh"]))
def test_unfold_is_substitution_complete(arg, handle):
    app = ProtoApp("PassMessages", (arg,))
    got = unfold_handle(PASS_MESSAGES, handle, app)
    assert not _mentions_decl_vars(got)


def test_render_matches_source_notation():
    t = Put(STRING, Get(INT, TOPBOT))
    assert str(t) == "Put([Char]|Get(Int|TopBot))"
    assert str(Tensor(Put(STRING, TOPBOT), Put(STRING, TOPBOT))) == \
        "Put([Char]|TopBot) (*) Put([Char]|TopBot)"
    assert str(ProtoApp("PassMessages", (STRING,))) == "PassMessages([Char]|)"


def _reference_render(t) -> str:
    """The recursive renderer the explicit-stack one replaced."""
    k = type(t)
    if k is Put or k is Get:
        return f"{k.__name__}({_reference_render(t.msg)}|" \
               f"{_reference_render(t.rest)})"
    if k is Tensor or k is Par:
        op = "(*)" if k is Tensor else "(+)"
        return f"{_reference_operand(t.left)} {op} " \
               f"{_reference_operand(t.right)}"
    if k is NegT:
        return f"Neg({_reference_render(t.inner)})"
    if k is ProtoApp or k is CoprotoApp:
        if not t.args:
            return t.name
        return f"{t.name}({', '.join(map(_reference_render, t.args))}|)"
    if k is StoreType:
        return f"Store({_reference_signature(t.sig)})"
    return str(t)


def _reference_operand(t) -> str:
    if isinstance(t, (Tensor, Par)):
        return f"({_reference_render(t)})"
    return _reference_render(t)


def _reference_signature(sig) -> str:
    return "|".join((", ".join(map(_reference_render, sig.seq_params)),
                     ", ".join(map(_reference_render, sig.in_chans)))) + \
        "=>" + ", ".join(map(_reference_render, sig.out_chans))


def _signatures(seqs, chans):
    return st.builds(ProcSignature, st.tuples() | st.tuples(seqs)
                     | st.tuples(seqs, seqs),
                     st.lists(chans, max_size=2).map(tuple),
                     st.lists(chans, max_size=2).map(tuple))


def any_types():
    """Channel and sequential types of every constructor, stored process
    signatures included."""
    atoms = st.sampled_from([
        TOPBOT, INT, STRING, SeqVar("A"), SeqUVar(3), StateVar("S"),
        UVar(7), ProtoApp("P"), CoprotoApp("Q"),
    ])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Put, sub, sub),
            st.builds(Get, sub, sub),
            st.builds(Tensor, sub, sub),
            st.builds(Par, sub, sub),
            st.builds(NegT, sub),
            st.builds(ProtoApp, st.just("P"),
                      st.lists(sub, min_size=1, max_size=3).map(tuple)),
            st.builds(CoprotoApp, st.just("Q"),
                      st.lists(sub, min_size=1, max_size=2).map(tuple)),
            st.builds(StoreType, _signatures(sub, sub)),
        ),
        max_leaves=12,
    )


@settings(max_examples=300)
@given(any_types())
def test_render_agrees_with_the_recursive_reference(t):
    # A stored type's text holds its signature's.
    assert str(t) == _reference_render(t)


def test_render_has_no_depth_limit():
    t = TOPBOT
    for _ in range(5000):
        t = StoreType(ProcSignature((INT,), (Put(INT, t),), ()))
    text = str(t)
    assert text.startswith("Store(Int|Put(Int|Store(")
    assert text.count("Store(") == 5000


# ---------------------------------------------------------------------------
# record semantics: what construction, `==`, `hash` and `repr` of a node do

def test_equality_ignores_positions_and_derived_fields():
    at = Pos(3, 4)
    assert PutVal(IntLit(1, at), "c", at) == PutVal(IntLit(1), "c")
    assert HandleDef("H", TOPBOT, at) == HandleDef("H", TOPBOT)
    call = Call("p", (IntLit(1),), ("a",), ("b",), at)
    assert call.chan_args == ("a", "b")
    assert call == Call("p", (IntLit(1),), ("a",), ("b",))
    use = Use(VarRef("s"), (), ("a",), ("b", "c"))
    assert use.chan_args == ("a", "b", "c")
    d = ProcDef("p", None, (), ("a",), ("b",), (Halt("a"),), at)
    assert d.chan_params == ("a", "b")
    assert d == ProcDef("p", None, (), ("a",), ("b",), (Halt("a"),))
    exec_program = ExecProgram({"p": d})
    assert exec_program.refs == {} and exec_program._free == {}
    exec_program.free_chans(d.body)
    assert exec_program == ExecProgram({"p": d})
    assert PutVal(IntLit(1), "c") != PutVal(IntLit(2), "c")
    assert PutVal(IntLit(1), "c") != GetVal("x", "c")


def test_types_and_positions_hash_by_value():
    assert hash(Pos(1, 2)) == hash(Pos(1, 2)) and Pos(1, 2) == Pos(1, 2)
    assert Pos() == NO_POS == Pos(0, 0)
    for t in (TOPBOT, INT, Put(INT, TOPBOT), Tensor(TOPBOT, NegT(TOPBOT)),
              ProtoApp("P", (STRING,)), SeqVar("A"), UVar(3), SeqUVar(4),
              StoreType(ProcSignature((INT,), (TOPBOT,), ()))):
        copy = eval(repr(t), vars(model))
        assert copy is not t and copy == t and hash(copy) == hash(t)
    assert len({Put(INT, TOPBOT), Put(INT, TOPBOT), Get(INT, TOPBOT)}) == 2


@pytest.mark.parametrize("node", [
    PutVal(IntLit(1), "c"), Halt("c"), Close(None), IntLit(1),
    Arm("x", (Halt("x"),)), ProcDef("p", None, (), (), (), ()),
    HandleDef("H", TOPBOT), SourceProgram(()), ServiceConfig(),
    Diagnostic("k", NO_POS, "m"),
    StoredProc(ProcDef("p", None, (), (), (), ()), ()),
], ids=lambda n: type(n).__name__)
def test_commands_and_declarations_are_unhashable(node):
    with pytest.raises(TypeError):
        hash(node)


def test_channel_ends_compare_by_identity():
    a, b = EndState(1, "c"), EndState(1, "c")
    assert a == a and a != b and hash(a) != hash(b)
    assert len({a, b}) == 2
    assert repr(a) == "EndState(cid=1, label='c', owner=None, closed=False)"
    assert a.peer is None and a.inbox is not b.inbox and not a.inbox


def test_repr_prints_the_shown_fields_in_order():
    assert repr(PutVal(IntLit(1), "c")) == \
        "PutVal(expr=IntLit(value=1), chan='c')"
    assert repr(Call("p", (), ("a",), ())) == \
        "Call(callee='p', seq_args=(), in_chans=('a',), out_chans=())"
    assert repr(Put(INT, TOPBOT)) == \
        "Put(msg=BaseSeq(name='Int'), rest=TopBot())"
    assert repr(Pos(2, 5)) == "Pos(line=2, col=5)"
    assert repr(TraceEvent(0, 1, "PUT")) == \
        "TraceEvent(step=0, pid=1, kind='PUT', chan=None, cid=None, " \
        "payload=None)"


def test_default_factories_make_fresh_containers():
    a, b = ServiceConfig(), ServiceConfig()
    assert a.outputs == [] and a.outputs is not b.outputs
    assert a.script == [] and a.script is not b.script
    assert ServiceConfig(script=None).script is None
    assert ExecProgram({}).refs is not ExecProgram({}).refs


def _record_classes() -> dict[str, type]:
    """Every record class a module of `src/campl` defines, by name."""
    found = {}
    for info in pkgutil.iter_modules(campl.__path__):
        module = importlib.import_module(f"campl.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ \
                    and "_shown" in vars(obj):
                found[obj.__name__] = obj
    return found


# Some nodes built as a program holds them, then one instance of each other
# record class, with `()` for every parameter: the layout does not depend
# on the values.
_NODES = [
    Pos(), IntLit(1), VarRef("x"), PutVal(IntLit(1), "c"), Close("c"),
    Arm("x", ()), Call("p", (), (), ()), Use(VarRef("s"), (), (), ()),
    EndState(0, "c"), TraceEvent(0, 1, "PUT"),
]
_NODES += [cls(*[()] * len(cls.__match_args__))
           for name, cls in sorted(_record_classes().items())
           if name not in {type(n).__name__ for n in _NODES}]


def test_every_record_class_has_a_sample_node():
    assert {type(n) for n in _NODES} == set(_record_classes().values())
    assert len(_NODES) == 58


@pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
def test_slotted_nodes_have_no_instance_dict(node):
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.not_a_field = 1


def test_outcome_takes_its_fields_in_order():
    out = Outcome(OutcomeKind.DONE, 3, (), None)
    assert (out.kind, out.steps, out.trace, out.machine, out.stuck) == \
        (OutcomeKind.DONE, 3, (), None, {})
    assert out.done and out.stuck is not Outcome(OutcomeKind.DONE, 3, (),
                                                 None).stuck
    keyed = Outcome(steps=3, trace=(), machine=None, kind=OutcomeKind.STUCK,
                    stuck={1: [2]})
    assert keyed.stuck == {1: [2]} and not keyed.done
