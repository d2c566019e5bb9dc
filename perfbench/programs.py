"""Seeded generators for the benchmark's `.campl` inputs and their oracles.

The generators also write the canonical form that `campl dump-ast` prints
(for pipeline and churn it is the program text itself), so the expected
`dump-ast` output, console output and exit codes all come from the
generator's own parameters, never from running `campl`.

Sizes are fixed per workload; the seed only picks names, message strings
and machine seeds, so different seeds cost about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Pipeline: listing7's PassMessages protocol through K forward stages.
PIPELINE_STAGES = 200
PIPELINE_MESSAGES = 2
PIPELINE_VARIANTS = 3

# Churn: every message re-plugs a relay, an opener and a racer.
CHURN_MESSAGES = 1000
CHURN_VARIANTS = 3

# Front end: (wide procs N, fork depth D) per program.  Check time grows
# linearly in N and quadratically in D; the shapes that check trade one for
# the other at about the same cost, so no rank of the check times falls
# between two programs of very different cost.  The middle three also print
# in about the same time, which is where the dump-ast median falls.
FRONTEND_SHAPES = ((330, 20), (240, 55), (195, 65), (150, 75), (15, 105),
                   (1000, 20), (20, 300))
# Shapes that crash today (ROADMAP Baseline, "Robustness"), with why
# `check` and `dump-ast` fail.  They stay in the set as known defects.
_CHAIN = "1000-process call chain: RecursionError in the checker's SCC pass"
_DEEP = "fork nesting depth 300: RecursionError in the parser"
FRONTEND_DEFECTS = {(1000, 20): (_CHAIN, None), (20, 300): (_DEEP, _DEEP)}

SWEEP_STAGES = (1, 10, 50, 100, 200, 400)
SWEEP_STEPS = 4000          # about this many machine steps per sweep point
SWEEP_DEPTHS = (50, 100, 200)

STEP = "    "


@dataclass(frozen=True)
class Op:
    """One `campl` CLI invocation and what it must produce."""
    kind: str                       # "run", "check" or "dump-ast"
    program: str                    # key into Workload.sources
    accepts: Callable[[str], bool]  # stdout oracle
    seed: int | None = None         # machine seed for `campl run`
    code: int = 0                   # expected exit code
    known_defect: str | None = None  # documented crash, counted as failed

    @property
    def args(self) -> tuple[str, ...]:
        """CLI arguments after the file name."""
        return () if self.seed is None else ("--seed", str(self.seed))


@dataclass
class Workload:
    name: str
    sources: dict[str, str]         # program key -> canonical text
    ops: list[Op]                   # one pass, in order
    primary: str                    # op kind that op_s.* measures


def _exact(expected: str) -> Callable[[str], bool]:
    return lambda out: out == expected


def _tag(r: random.Random, n: int = 6) -> str:
    return "".join(r.choice("abcdefghijkmnpqrstuvwxyz") for _ in range(n))


def _word(r: random.Random) -> str:
    return _tag(r, 3) + str(r.randrange(1000, 10000))


def _call(name: str, seqs=(), ins=(), outs=()) -> str:
    parts = ["( "]
    if seqs:
        parts.append(", ".join(seqs) + " ")
    parts.append("|")
    if ins:
        parts.append(" " + ", ".join(ins))
    parts.append(" =>")
    if outs:
        parts.append(" " + ", ".join(outs))
    parts.append(" )")
    return name + "".join(parts)


def _plug(branches: list[str], level: int) -> list[str]:
    ind = STEP * level
    lines = [f"{ind}plug"]
    for b in branches:
        lines += [f"{ind}{STEP}do", f"{ind}{STEP * 2}{b}"]
    return lines


def _program(decls: list[list[str]]) -> str:
    return "\n\n".join("\n".join(d) for d in decls) + "\n"


# ---------------------------------------------------------------------------
# pipeline

def pipeline_source(r: random.Random, stages: int,
                    msgs: list[str]) -> str:
    proto, send, stop = "Pass" + _tag(r), "Send" + _tag(r), "Stop" + _tag(r)
    app = f"{proto}([Char]|)"
    protocol = [f"protocol {proto}(A|) => S =",
                f"{STEP}{send} :: Put(A|S) => S",
                f"{STEP}{stop} :: TopBot => S"]
    forward = [
        f"proc forward :: | {app} => {app} =",
        "    | source => dest -> do",
        "        hcase source of",
        f"            {send} -> do",
        "                get msg on source",
        "                on dest do",
        f"                    hput {send}",
        "                    put msg",
        "                forward( | source, dest => )",
        f"            {stop} -> do",
        "                close source",
        "                on dest do",
        f"                    hput {stop}",
        "                    halt",
    ]
    produce = ["proc produce =", "    | => out -> do", "        on out do"]
    for m in msgs:
        produce += [f"            hput {send}", f'            put "{m}"']
    produce += [f"            hput {stop}", "            halt"]
    consume = [
        "proc consume =",
        "    | wire, console => -> do",
        "        hcase wire of",
        f"            {send} -> do",
        "                get msg on wire",
        "                on console do",
        "                    hput ConsolePut",
        "                    put msg",
        "                consume( | wire, console => )",
        f"            {stop} -> do",
        "                close wire",
        "                on console do",
        "                    hput ConsoleClose",
        "                    halt",
    ]
    branches = [_call("produce", outs=["c0"])]
    branches += [_call("forward", ins=[f"c{i}"], outs=[f"c{i + 1}"])
                 for i in range(stages)]
    branches.append(_call("consume", ins=[f"c{stages}", "console"]))
    run = ["proc run =", "    | console => -> do"] + _plug(branches, 2)
    return _program([protocol, forward, produce, consume, run])


def pipeline(seed: int) -> Workload:
    r = random.Random(seed)
    sources, ops = {}, []
    for v in range(PIPELINE_VARIANTS):
        msgs = [_word(r) for _ in range(PIPELINE_MESSAGES)]
        key = f"pipeline{v}"
        sources[key] = pipeline_source(r, PIPELINE_STAGES, msgs)
        out = "".join(m + "\n" for m in msgs)
        ops.append(Op("run", key, _exact(out), seed=r.randrange(2**31)))
        ops.append(Op("dump-ast", key, _exact(sources[key])))
    return Workload("pipeline", sources, ops, "run")


# ---------------------------------------------------------------------------
# churn

def churn_source(r: random.Random, msgs: list[str], tag: str) -> str:
    proto, item, stop = "Feed" + _tag(r), "Item" + _tag(r), "Stop" + _tag(r)
    protocol = [f"protocol {proto}(A|) => S =",
                f"{STEP}{item} :: Put(A|S) => S",
                f"{STEP}{stop} :: TopBot => S"]
    producer = ["proc producer =", "    | => out -> do", "        on out do"]
    for m in msgs:
        producer += [f"            hput {item}", f'            put "{m}"']
    producer += [f"            hput {stop}", "            halt"]
    sender = ["proc sender =", "    v | => ch -> do", "        on ch do",
              "            put v", "            halt"]
    relay = ["proc relay =", "    v | => pair -> do", "        fork pair as",
             "            a -> do",
             "                " + _call("sender", ["v"], outs=["a"]),
             "            b -> do",
             "                " + _call("sender", [f'"{tag}"'], outs=["b"])]
    opener = ["proc opener =", "    | => gate -> do", "        halt gate"]
    settle = ["proc settle =",
              "    | first, second, source, console => -> do",
              "        get x on first", "        get y on second",
              "        close first", "        close second",
              "        on console do",
              "            hput ConsolePut", "            put x",
              "            hput ConsolePut", "            put y",
              "        " + _call("worker", ins=["source", "console"])]
    arm_ins = {"a": ["a", "b", "source", "console"],
               "b": ["b", "a", "source", "console"]}
    racer = ["proc racer =",
             "    | gate, a, b, source, console => -> do",
             "        close gate", "        race"]
    for arm, ins in arm_ins.items():
        racer += [f"            {arm} -> do",
                  "                " + _call("settle", ins=ins)]
    stage = ["proc stage =", "    | pair, source, console => -> do",
             "        split pair into a, b"]
    stage += _plug([_call("opener", outs=["gate"]),
                    _call("racer", ins=["gate", "a", "b", "source",
                                        "console"])], 2)
    worker = ["proc worker =", "    | source, console => -> do",
              "        hcase source of", f"            {item} -> do",
              "                get msg on source"]
    worker += _plug([_call("relay", ["msg"], outs=["pair"]),
                     _call("stage", ins=["pair", "source", "console"])], 4)
    worker += [f"            {stop} -> do", "                close source",
               "                on console do",
               "                    hput ConsoleClose",
               "                    halt"]
    run = ["proc run =", "    | console => -> do"]
    run += _plug([_call("producer", outs=["feed"]),
                  _call("worker", ins=["feed", "console"])], 2)
    return _program([protocol, producer, sender, relay, opener, settle,
                     racer, stage, worker, run])


def churn_accepts(msgs: list[str], tag: str) -> Callable[[str], bool]:
    """The race decides which of each message's two lines comes first;
    both orders are correct, nothing else is."""
    def accepts(out: str) -> bool:
        lines = out.split("\n")
        if lines[-1] != "" or len(lines) != 2 * len(msgs) + 1:
            return False
        return all({lines[2 * i], lines[2 * i + 1]} == {m, tag}
                   for i, m in enumerate(msgs))
    return accepts


def churn(seed: int) -> Workload:
    r = random.Random(seed)
    sources, ops = {}, []
    for v in range(CHURN_VARIANTS):
        msgs = [_word(r) for _ in range(CHURN_MESSAGES)]
        tag = "~" + _tag(r, 4)
        key = f"churn{v}"
        sources[key] = churn_source(r, msgs, tag)
        ops.append(Op("run", key, churn_accepts(msgs, tag),
                      seed=r.randrange(2**31)))
        ops.append(Op("dump-ast", key, _exact(sources[key])))
    return Workload("churn", sources, ops, "run")


# ---------------------------------------------------------------------------
# front end

def frontend_source(r: random.Random, wide: int, depth: int,
                    canonical: bool = False) -> str:
    """A well-typed program with a wide part (`wide` protocol-handling
    procs in one call cycle) and a deep part (a fork tower of `depth`).
    `canonical` gives the text `dump-ast` prints for the same draws."""
    proto, msg, end = "Flow" + _tag(r), "Msg" + _tag(r), "End" + _tag(r)
    app = f"{proto}([Char]|)"
    protocol = [f"protocol {proto}(A|) => S =",
                f"{STEP}{msg} :: Put(A|S) => S",
                f"{STEP}{end} :: TopBot => S"]
    names = [f"w{i}{_tag(r, 4)}" for i in range(wide)]
    decls = [protocol]
    for i, name in enumerate(names):
        # Every other signature is left to inference.
        head = f"proc {name} :: | {app} => {app} =" if i % 2 \
            else f"proc {name} ="
        sent = f'"{_word(r)}"' if i % 3 == 2 else "x"
        nxt = names[(i + 1) % wide]
        decls.append([
            head,
            "    | src => dst -> do",
            "        hcase src of",
            f"            {msg} -> do",
            "                get x on src",
            "                on dst do",
            f"                    hput {msg}",
            f"                    put {sent}",
            "                " + _call(nxt, ins=["src", "dst"]),
            f"            {end} -> do",
            "                close src",
            "                on dst do",
            f"                    hput {end}",
            "                    halt",
        ])
    feed = ["proc feed =", "    | => out -> do", "        on out do"]
    for _ in range(3):
        feed += [f"            hput {msg}", f'            put "{_word(r)}"']
    feed += [f"            hput {end}", "            halt"]
    drain = ["proc drain =", "    | wire => -> do", "        hcase wire of",
             f"            {msg} -> do", "                get x on wire",
             "                " + _call("drain", ins=["wire"]),
             f"            {end} -> do", "                halt wire"]
    tower = ["proc tower =", "    | => t0 -> do", "        fork t0 as"]
    for j in range(1, depth + 1):
        # Canonically every arm is a `do` block; the source form writes the
        # nested fork on its arm's line, one parser frame less per level.
        ind = STEP * (2 * j + 1 if canonical else j + 2)
        tower += [f"{ind}a{j} -> do",
                  f'{ind}{STEP}put "{_word(r)}" on a{j}',
                  f"{ind}{STEP}halt a{j}"]
        if j == depth:
            tower += [f"{ind}t{j} -> do", f"{ind}{STEP}halt t{j}"]
        elif canonical:
            tower += [f"{ind}t{j} -> do", f"{ind}{STEP}fork t{j} as"]
        else:
            tower.append(f"{ind}t{j} -> fork t{j} as")
    final = ["proc final =", "    | wire, t0 => -> do"]
    for j in range(1, depth + 1):
        final += [f"        split t{j - 1} into a{j}, t{j}",
                  f"        get v{j} on a{j}", f"        close a{j}"]
    final += [f"        close t{depth}",
              "        " + _call("drain", ins=["wire"])]
    run = ["proc run =", "    | => -> do"]
    run += _plug([_call("feed", outs=["c0"]),
                  _call(names[0], ins=["c0"], outs=["c1"]),
                  _call("final", ins=["c1", "t"]),
                  _call("tower", outs=["t"])], 2)
    return _program(decls + [feed, drain, tower, final, run])


def frontend(seed: int) -> Workload:
    r = random.Random(seed)
    sources, ops = {}, []
    for wide, depth in FRONTEND_SHAPES:
        key = f"frontend-n{wide}-d{depth}"
        check_defect, dump_defect = FRONTEND_DEFECTS.get((wide, depth),
                                                         (None, None))
        same_draws = random.Random()
        same_draws.setstate(r.getstate())
        sources[key] = frontend_source(r, wide, depth)
        canonical = frontend_source(same_draws, wide, depth, canonical=True)
        ops.append(Op("check", key, _exact(""), known_defect=check_defect))
        ops.append(Op("dump-ast", key, _exact(canonical),
                      known_defect=dump_defect))
    return Workload("frontend", sources, ops, "check")


WORKLOADS = {"pipeline": pipeline, "churn": churn, "frontend": frontend}


# ---------------------------------------------------------------------------
# scaling sweep (traced run only)

def sweep_pipelines(seed: int) -> list[tuple[int, str, list[str]]]:
    """(K, program, expected console lines) per sweep point; about five
    steps per message per stage, so M shrinks as K grows."""
    r = random.Random(seed)
    out = []
    for k in SWEEP_STAGES:
        msgs = [_word(r) for _ in range(max(1, round(SWEEP_STEPS / 5 / k)))]
        out.append((k, pipeline_source(r, k, msgs), msgs))
    return out


def sweep_towers(seed: int) -> list[tuple[int, str]]:
    r = random.Random(seed)
    return [(d, frontend_source(r, 2, d)) for d in SWEEP_DEPTHS]
