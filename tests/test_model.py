import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campl.model import (
    BOOL, CHAR, INPUT, INT, OUTPUT, STRING, TOPBOT, CoprotoApp, DeclKind,
    Get, HandleDef, NegT, Par, ProtoApp, ProtocolDecl, Put, SeqVar,
    StateVar, Tensor, UnknownHandle, allowed_commands, unfold_handle,
)

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
