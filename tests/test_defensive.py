"""The defensive raises of `src/`.  Each guards a state that no program
text reaches: the parser builds only known commands, expressions and
well-applied protocols, `prepare` removes every `on ... do`, the checker
asks the command matrix only about a solved type, and the machine steps
only a process that can move.  So each is reached here by a direct call
with what only a caller's bug could pass."""

import re

import pytest

from campl import printer
from campl.elaborate import ExecProgram
from campl.model import (
    INPUT, OUTPUT, Close, GetVal, OnDo, ProtoApp, PutVal, StateVar, UVar,
    allowed_commands, unfold_handle,
)
from campl.runtime import MachineFault
from test_model import PASS_MESSAGES
from test_runtime import _waiting_at


def test_free_chans_refuses_an_on_block():
    body = (OnDo("c", (Close(None),)),)
    with pytest.raises(ValueError,
                       match="^free_chans expects a desugared body$"):
        ExecProgram({}).free_chans(body)


def test_free_chans_refuses_what_is_not_a_command():
    with pytest.raises(TypeError, match="^unhandled command object$"):
        ExecProgram({}).free_chans((object(),))


@pytest.mark.parametrize("t", [UVar(0), StateVar("S")], ids=repr)
@pytest.mark.parametrize("pol", [INPUT, OUTPUT], ids=str)
def test_allowed_commands_refuses_a_type_that_is_not_ground(t, pol):
    message = f"allowed_commands on non-ground type {t!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        allowed_commands(t, pol)


def test_unfold_handle_refuses_the_wrong_argument_count():
    app = ProtoApp("PassMessages", ())
    with pytest.raises(ValueError, match=r"^PassMessages expects 1 "
                                         r"argument\(s\), got 0$"):
        unfold_handle(PASS_MESSAGES, "SendMsg", app)


def test_the_printer_refuses_what_is_not_a_command():
    with pytest.raises(TypeError, match="^cannot print object$"):
        printer._command(object(), 0)


def test_the_printer_refuses_what_is_not_an_expression():
    with pytest.raises(TypeError, match="^cannot print object$"):
        printer._command(PutVal(object(), "c"), 0)


def test_a_get_stepped_with_an_empty_queue_faults():
    m, p = _waiting_at(GetVal("x", "c"))
    with pytest.raises(MachineFault) as e:
        m.step(p)
    assert str(e.value) == ("IllegalCommand: get on 'c' scheduled with an "
                            "empty queue")


def test_a_put_of_what_is_not_an_expression_faults():
    m, p = _waiting_at(PutVal(object(), "c"))
    with pytest.raises(MachineFault) as e:
        m.step(p)
    assert str(e.value) == "IllegalCommand: cannot evaluate object"
