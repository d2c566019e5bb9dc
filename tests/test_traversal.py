"""Guards for the traversal helpers in `campl.model`.

Every pass over command bodies or types recurses through `map_command`
(whose nested bodies `conftest.sub_bodies` lists) and `type_parts` /
`map_type`.  These tests build one instance of every command and type
constructor from its fields (`conftest.fields`), so a new constructor the
helpers do not know about fails here rather than being silently skipped
by the checker or the resolver.
"""

import itertools
import re
from typing import get_args

import pytest
from hypothesis import given

from campl import elaborate, model
from campl.checker import check_program
from campl.elaborate import prepare
from campl.model import (
    ChanType, Command, IntLit, NegT, ProcSignature, SeqType, SeqVar,
    StateVar, map_command, map_type, type_parts,
)
from campl.parser import parse_source
from campl.printer import roundtrip_print
from conftest import fields, sub_bodies
from test_model import chan_types

COMMANDS = get_args(Command)
TYPES = get_args(ChanType) + get_args(SeqType)
_ids = itertools.count()


# ---------------------------------------------------------------------------
# commands

def _body():
    return (model.Halt(f"b{next(_ids)}"),)


def _expr():
    return IntLit(next(_ids))


def _sample(ann: str):
    """A value for a command field annotated `ann`; nested bodies and
    expressions are distinct so their order can be checked."""
    ann = ann.replace("'", "")
    if ann.startswith("tuple[tuple[Command"):
        return (_body(), _body())
    if "Command" in ann:
        return _body()
    arm = re.search(r"\bArm\b", ann)
    if arm:
        return (_build(getattr(model, arm.group())),
                _build(getattr(model, arm.group())))
    if ann == "tuple[Expr, ...]":
        return (_expr(), _expr())
    if ann == "Expr":
        return _expr()
    if ann.startswith("tuple[str"):
        return ("x", "y")
    return "c"


def _build(cls):
    return cls(*(_sample(ann) for name, ann in fields(cls).items()
                 if name != "pos"))


def _is_body(v) -> bool:
    return isinstance(v, tuple) and bool(v) \
        and all(isinstance(c, COMMANDS) for c in v)


def _nested(cmd):
    """Bodies and expressions of `cmd`, found from its fields alone."""
    bodies, exprs = [], []
    for name in fields(cmd):
        v = getattr(cmd, name)
        for x in v if isinstance(v, tuple) and not _is_body(v) else (v,):
            if _is_body(x):
                bodies.append(x)
            elif isinstance(x, IntLit):
                exprs.append(x)
            elif hasattr(x, "body"):
                bodies.append(x.body)
    return bodies, exprs


@pytest.mark.parametrize("cls", COMMANDS, ids=lambda c: c.__name__)
def test_sub_bodies_visits_every_nested_body(cls):
    cmd = _build(cls)
    bodies, _ = _nested(cmd)
    assert list(sub_bodies(cmd)) == bodies


@pytest.mark.parametrize("cls", COMMANDS, ids=lambda c: c.__name__)
def test_map_command_identity(cls):
    cmd = _build(cls)
    assert map_command(cmd, lambda b: b, lambda e: e) is cmd


@pytest.mark.parametrize("cls", COMMANDS, ids=lambda c: c.__name__)
def test_map_command_reaches_every_body_and_expression(cls):
    cmd = _build(cls)
    mark = model.Close("mark")
    out = map_command(cmd, lambda b: b + (mark,),
                      lambda e: IntLit(-e.value))
    bodies, exprs = _nested(cmd)
    assert _nested(out) == ([b + (mark,) for b in bodies],
                            [IntLit(-e.value) for e in exprs])
    assert type(out) is cls and out.pos == cmd.pos


def test_desugaring_skips_exactly_the_commands_with_nothing_nested():
    # `prepare` keeps these without a `map_command` call, and records no
    # call edge for them: a command class that gains a body, an expression
    # or a callee must leave the set.
    leaves = {cls for cls in COMMANDS
              if _nested(_build(cls)) == ([], []) and cls is not model.Call}
    assert elaborate._LEAVES == leaves


# ---------------------------------------------------------------------------
# types

def _type_sample(ann: str):
    ann = ann.replace("'", "")
    if ann == "SeqType":
        return SeqVar(f"s{next(_ids)}")
    if ann == "ChanType":
        return StateVar(f"c{next(_ids)}")
    if ann == "tuple[SeqType, ...]":
        return (_type_sample("SeqType"), _type_sample("SeqType"))
    if ann == "ProcSignature":
        return ProcSignature((_type_sample("SeqType"),),
                             (_type_sample("ChanType"),),
                             (_type_sample("ChanType"),
                              _type_sample("ChanType")))
    return next(_ids) if ann == "int" else "N"


def _components(t) -> list:
    """The types directly inside `t`, found from its fields alone."""
    out = []
    for name in fields(t):
        v = getattr(t, name)
        if isinstance(v, ProcSignature):
            out += [*v.seq_params, *v.in_chans, *v.out_chans]
        elif isinstance(v, tuple):
            out += v
        elif not isinstance(v, (str, int)):
            out.append(v)
    return out


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_type_helpers_cover_every_constructor(cls):
    t = cls(*map(_type_sample, fields(cls).values()))
    assert list(type_parts(t)) == _components(t)
    assert map_type(t, lambda x: x) is t
    out = map_type(t, NegT)
    assert type(out) is cls
    assert _components(out) == [NegT(x) for x in _components(t)]


@given(chan_types())
def test_map_type_identity(t):
    assert map_type(t, lambda x: x) is t


@given(chan_types())
def test_type_parts_are_every_component(t):
    assert list(type_parts(t)) == _components(t)


# ---------------------------------------------------------------------------
# deep nesting: every pass must stay within the default recursion limit

def _fork_tower(depth: int) -> str:
    step = "    "
    tower = ["proc tower =", "    | => t0 -> do", "        fork t0 as"]
    for j in range(1, depth + 1):
        ind = step * (j + 2)
        tower += [f"{ind}a{j} -> do", f'{ind}{step}put "w" on a{j}',
                  f"{ind}{step}halt a{j}"]
        if j == depth:
            tower += [f"{ind}t{j} -> do", f"{ind}{step}halt t{j}"]
        else:
            tower.append(f"{ind}t{j} -> fork t{j} as")
    final = ["proc final =", "    | t0 => -> do"]
    for j in range(1, depth + 1):
        final += [f"        split t{j - 1} into a{j}, t{j}",
                  f"        get v{j} on a{j}", f"        close a{j}"]
    final.append(f"        close t{depth}")
    run = ["proc run =", "    | => -> plug",
           "        tower( | => t )", "        final( | t => )"]
    return "\n\n".join("\n".join(d) for d in (tower, final, run)) + "\n"


def test_depth_200_fork_tower_passes_every_stage():
    program = parse_source(_fork_tower(200))
    typed = check_program(program)
    assert "tower" in typed.exec_program.procs
    assert "tower" in prepare(program).procs
    assert roundtrip_print(program).count("fork t") == 200
