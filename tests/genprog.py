"""Random well-typed program generator.

Builds a random tree of processes connected by randomly typed channels,
then writes each process body to follow its ends of those types exactly,
so every generated program checks and runs to completion.  Bounded to at
most 6 processes, 8 statically named channels, and multiplicative nesting
depth 3.
"""

from __future__ import annotations

import random
from dataclasses import replace

from campl.model import (
    BOOL, CHAR, INPUT, INT, OUTPUT, STRING, TOPBOT, BoolLit, Call, CharLit,
    Close, Fork, ForkArm, Get, GetVal, Halt, IntLit, Link, Plug, ProcDef,
    ProcSignature, Put, PutVal, SourceProgram, Split, StringLit, Tensor,
    Par, Polarity,
)

MAX_PROCS = 6
MAX_DEPTH = 3

_SEQ = [INT, STRING, BOOL, CHAR]


def _literal(r: random.Random, t):
    if t is INT:
        return IntLit(r.randrange(-99, 100))
    if t is STRING:
        return StringLit(r.choice(["hi", "msg", "ok", "x y", ""]))
    if t is BOOL:
        return BoolLit(r.random() < 0.5)
    return CharLit(r.choice("abcz"))


def gen_chan_type(r: random.Random, depth: int):
    roll = r.random()
    if depth <= 0 or roll < 0.25:
        return TOPBOT
    if roll < 0.55:
        return Put(r.choice(_SEQ), gen_chan_type(r, depth - 1))
    if roll < 0.85:
        return Get(r.choice(_SEQ), gen_chan_type(r, depth - 1))
    ctor = Tensor if roll < 0.925 else Par
    return ctor(gen_chan_type(r, depth - 1), gen_chan_type(r, depth - 1))


class _BodyBuilder:
    def __init__(self, r: random.Random):
        self.r = r
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def build(self, pending: list[tuple[str, object, Polarity]]) -> tuple:
        (name, t, pol), rest = pending[0], pending[1:]
        if t is TOPBOT or isinstance(t, type(TOPBOT)):
            if rest:
                return (Close(name),) + self.build(rest)
            return (Halt(name),)
        if isinstance(t, Put):
            sending = pol is OUTPUT
            return self._value_step(name, t.msg, t.rest, pol, sending, rest)
        if isinstance(t, Get):
            sending = pol is INPUT
            return self._value_step(name, t.msg, t.rest, pol, sending, rest)
        if isinstance(t, Tensor):
            if pol is OUTPUT:
                return self._fork(name, t, pol, rest)
            return self._split(name, t, pol, rest)
        if isinstance(t, Par):
            if pol is OUTPUT:
                return self._split(name, t, pol, rest)
            return self._fork(name, t, pol, rest)
        raise AssertionError(f"unexpected type {t}")

    def _value_step(self, name, msg, cont, pol, sending, rest):
        if sending:
            cmd = PutVal(_literal(self.r, msg), name)
        else:
            cmd = GetVal(self.fresh("v"), name)
        return (cmd,) + self.build([(name, cont, pol)] + rest)

    def _fork(self, name, t, pol, rest):
        a = self.fresh("f")
        b = self.fresh("f")
        mine = list(rest)
        self.r.shuffle(mine)
        cut = self.r.randint(0, len(mine))
        left, right = mine[:cut], mine[cut:]
        return (Fork(name, (
            ForkArm(a, self.build([(a, t.left, pol)] + left)),
            ForkArm(b, self.build([(b, t.right, pol)] + right)),
        )),)

    def _split(self, name, t, pol, rest):
        a = self.fresh("s")
        b = self.fresh("s")
        pending = [(a, t.left, pol), (b, t.right, pol)] + rest
        return (Split(name, a, b),) + self.build(pending)


def gen_program(seed: int) -> SourceProgram:
    r = random.Random(seed)
    n = r.randint(2, MAX_PROCS)
    edges = []                       # (name, type, parent, child)
    for child in range(1, n):
        parent = r.randrange(child)
        t = gen_chan_type(r, MAX_DEPTH)
        if t is TOPBOT and r.random() < 0.7:
            t = Put(r.choice(_SEQ), TOPBOT)
        edges.append((f"e{child - 1}", t, parent, child))

    # Each process's channel list: (name, type, polarity), shuffled.
    per_proc: list[list[tuple[str, object, Polarity]]] = [[] for _ in range(n)]
    for name, t, parent, child in edges:
        child_pol = OUTPUT if r.random() < 0.5 else INPUT
        per_proc[child].append((name, t, child_pol))
        per_proc[parent].append((name, t, child_pol.flipped()))
    for chans in per_proc:
        r.shuffle(chans)

    decls = []
    for i, chans in enumerate(per_proc):
        builder = _BodyBuilder(r)
        body = builder.build(list(chans))
        ins = tuple(c for c, _, pol in chans if pol is INPUT)
        outs = tuple(c for c, _, pol in chans if pol is OUTPUT)
        sig = None
        if r.random() < 0.5:
            sig = ProcSignature(
                (),
                tuple(t for _, t, pol in chans if pol is INPUT),
                tuple(t for _, t, pol in chans if pol is OUTPUT))
        decls.append(ProcDef(f"p{i}", sig, (), ins, outs, body))

    branches = []
    for i, chans in enumerate(per_proc):
        ins = tuple(c for c, _, pol in chans if pol is INPUT)
        outs = tuple(c for c, _, pol in chans if pol is OUTPUT)
        branches.append((Call(f"p{i}", (), ins, outs),))
    decls.append(ProcDef("run", None, (), (), (),
                         (Plug(tuple(branches)),)))
    return SourceProgram(tuple(decls))


FWD = ProcDef("fwd", None, (), ("a",), ("b",), (Link("a", "b"),))


def with_forwarder(program: SourceProgram, first: bool,
                   pick: int = 0) -> SourceProgram:
    """Route plugged channel `e{pick}` (modulo the channel count) of a
    `gen_program` program through `fwd = | a => b -> a |=| b`.  The
    holder of its output end keeps the name `e{pick}`; the holder of its
    input end gets the fresh name `fw`.  The `fwd` branch goes first or
    last in the plug."""
    *decls, run = program.decls
    (plug,) = run.body
    name = f"e{pick % (len(plug.branches) - 1)}"
    branches = []
    for (call,) in plug.branches:
        ins = tuple("fw" if c == name else c for c in call.in_chans)
        branches.append((replace(call, in_chans=ins),))
    fwd = (Call("fwd", (), (name,), ("fw",)),)
    branches = [fwd] + branches if first else branches + [fwd]
    return SourceProgram((*decls, FWD,
                          replace(run, body=(Plug(tuple(branches)),))))
