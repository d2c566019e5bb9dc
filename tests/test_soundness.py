"""Checker/runtime agreement under mutation.

Randomly corrupt generated programs, and the corpus and golden programs
token by token; every mutant the checker still accepts must run to completion with no machine faults, no deadlock, and
the topology monitor quiet.  This is the teeth behind the static
discipline: anything the checker lets through is safe to execute.  The
pinned programs below are ones the checker once let through (or rejected
elsewhere) because a handle command solved an unknown channel type
without asking the command matrix.
"""

import random
import re

import pytest
from click.testing import CliRunner

from campl import lexer
from campl.checker import check_program
from campl.cli import main
from campl.diagnostics import CheckFailure, ParseFailure
from campl.elaborate import prepare
from campl.parser import parse_source
from campl.printer import roundtrip_print
from campl.runtime import boot
from campl.services import ScriptExhausted, ServiceConfig
from conftest import CORPUS, command_count, run_watched
from genprog import gen_program, with_forwarder
from test_goldens import (
    ARMS, ARMS_FAULTS, ESCAPES, FAULTS, LINKS, MESSAGES, STDIN_SCRIPT,
    STORED,
)


def _one_mutation(lines: list[str], r: random.Random) -> None:
    body_idx = [i for i, l in enumerate(lines)
                if l.strip() and not l.lstrip().startswith("proc")]
    if not body_idx:
        return
    op = r.randrange(8)
    i = r.choice(body_idx)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        names = re.findall(r"\b[efs]\d+\b", lines[i])
        if names:
            w = r.choice(names)
            lines[i] = lines[i].replace(w, w[0] + str(int(w[1:]) + 1), 1)
    elif op == 3:
        if "close" in lines[i]:
            lines[i] = lines[i].replace("close", "halt", 1)
        elif "halt" in lines[i]:
            lines[i] = lines[i].replace("halt", "close", 1)
    elif op == 4:
        lines[i] = re.sub(r"put -?\d+", 'put "zz"', lines[i])
    elif op == 5 and "put" in lines[i]:
        lines[i] = lines[i].replace("put", "get", 1)
    elif op == 6 and "get" in lines[i]:
        lines[i] = re.sub(r"get \w+", "put 0", lines[i], count=1)
    elif op == 7 and "=>" in lines[i] and "|" in lines[i]:
        m = re.match(r"^(\s*.*?\|)(.*?)=>(.*?)(\).*)?$", lines[i])
        if m:
            pre, ins, outs, post = m.groups()
            lines[i] = f"{pre}{outs.rstrip()} =>{ins.rstrip()}{post or ''}"


def _mutate(text: str, r: random.Random, n: int) -> str:
    lines = text.splitlines()
    for _ in range(n):
        _one_mutation(lines, r)
    return "\n".join(lines) + "\n"


def test_every_accepted_mutant_runs_clean():
    accepted = rejected = 0
    for seed in range(150):
        r = random.Random(55_000 + seed)
        base = roundtrip_print(gen_program(seed % 60))
        text = _mutate(base, r, 1 + seed % 3)
        try:
            prog = parse_source(text)
            check_program(prog)
        except (ParseFailure, CheckFailure):
            rejected += 1
            continue
        machine = boot(prepare(prog), seed=seed,
                       services=ServiceConfig.from_script([]))
        run_watched(machine)
        assert not machine.processes and not machine.channels, \
            f"mutant {seed} checked but did not finish:\n{text}"
        accepted += 1
    # the harness must exercise both sides to mean anything
    assert accepted >= 20
    assert rejected >= 20


def _token_mutants(text: str):
    """`text` with one token, as `tokenize` finds it, deleted or swapped
    with the next token of its kind; every fourth token is also
    duplicated."""
    lines = text.split("\n")
    spans, kinds = [], []
    for kind, _, line, col in lexer.tokenize(text)[:-1]:
        end = lexer._TOKEN.match(lines[line - 1], col - 1).end()
        spans.append((line - 1, col - 1, end))
        kinds.append(kind)

    def piece(span):
        line, start, end = span
        return lines[line][start:end]

    def edit(*replacements):
        new = list(lines)
        for line, start, end, text in sorted(replacements, reverse=True):
            new[line] = new[line][:start] + text + new[line][end:]
        return "\n".join(new)

    for k, span in enumerate(spans):
        yield edit((*span, ""))
        if k % 4 == 0:
            yield edit((*span, f"{piece(span)} {piece(span)}"))
        if kinds[k] in kinds[k + 1:]:
            after = spans[kinds.index(kinds[k], k + 1)]
            yield edit((*span, piece(after)), (*after, piece(span)))


def test_every_accepted_token_mutant_runs_clean():
    # Mutants of the corpus and the golden programs, beyond the generator's
    # fragment: protocols, races, `store`/`use` and `|=|`.  A mutant the
    # checker accepts runs, checked and watched step by step, until every
    # process and channel is gone, or until the Console's script runs out.
    texts = [p.read_text(encoding="utf-8")
             for p in sorted(CORPUS.glob("*.campl"))]
    for golden in (FAULTS, LINKS, ARMS, ARMS_FAULTS, MESSAGES, ESCAPES,
                   STORED):
        texts += golden.values()
    script = STDIN_SCRIPT.splitlines()
    seen = set(texts)
    accepted = rejected = 0
    for text in texts:
        for mutant in _token_mutants(text):
            if mutant in seen:
                continue
            seen.add(mutant)
            try:
                typed = check_program(parse_source(mutant))
            except (ParseFailure, CheckFailure):
                rejected += 1
                continue
            if "run" not in typed.exec_program.procs:
                continue            # checks, but `campl run` has no entry
            accepted += 1
            machine = boot(typed.exec_program, seed=accepted,
                           services=ServiceConfig.from_script(script))
            try:
                run_watched(machine)
            except ScriptExhausted:
                continue
            assert not machine.processes and not machine.channels, \
                f"mutant checked but did not finish:\n{mutant}"
    assert accepted >= 100 and rejected >= 100, (accepted, rejected)


def test_generated_programs_run_clean_through_a_forwarder():
    # One plugged channel goes through `fwd = | a => b -> a |=| b`, whose
    # branch is spawned first or last, so |=| runs before or after the
    # channel's ends fork, split and move.
    for seed in range(300):
        for first in (True, False):
            text = roundtrip_print(
                with_forwarder(gen_program(seed), first, seed))
            typed = check_program(parse_source(text))
            machine = boot(typed.exec_program, seed=seed,
                           services=ServiceConfig.from_script([]))
            run_watched(machine)
            assert not machine.processes and not machine.channels, \
                f"seed {seed}, fwd first={first}:\n{text}"


def _reached_from(refs: dict, name: str) -> set:
    """The processes `name` reaches through one or more calls or stores."""
    seen, todo = set(), list(refs[name])
    while todo:
        callee = todo.pop()
        if callee not in seen:
            seen.add(callee)
            todo.extend(refs.get(callee, ()))
    return seen


@pytest.mark.parametrize("forwarder", [False, True],
                         ids=["plain", "forwarder"])
def test_formal_generated_programs_run_each_command_once(forwarder):
    # The no-livelock claim for formal programs: when no process reaches
    # itself through calls and none is called twice, no command node runs
    # twice.  The generator emits no hcase or race arm that can go
    # untaken, so each node runs exactly once; the bound becomes `<=` once
    # it emits such arms.
    for seed in range(300):
        program = gen_program(seed)
        if forwarder:
            program = with_forwarder(program, seed % 2, seed)
        exec_program = check_program(
            parse_source(roundtrip_print(program))).exec_program
        refs = exec_program.refs
        called = [callee for callees in refs.values() for callee in callees]
        assert len(called) == len(set(called)), f"seed {seed}"
        assert not any(name in _reached_from(refs, name) for name in refs), \
            f"seed {seed}"
        machine = boot(exec_program, seed=seed,
                       services=ServiceConfig.from_script([]))
        out = machine.run_to_completion()
        assert out.done and out.steps == sum(
            command_count(d.body) for d in exec_program.procs.values()), \
            f"seed {seed}"


# ---------------------------------------------------------------------------
# a handle command on a channel whose type is not yet known

_GO = ("protocol Go(|) => S =\n"
       "    Go :: Put(Int|TopBot) => S\n")
_DONE = ("protocol Go(|) => S =\n"
         "    Done :: TopBot => S\n")

HANDLES = {
    # `b` sends a handle on its input end of a protocol, which only
    # receives one; `run` used to fault on `get w`.
    "hput-at-the-input-end": (
        _GO + "\nproc a =\n"
        "    | => x ->\n"
        "        on x do\n"
        "            hput Go\n"
        "            put 1\n"
        "            close\n"
        "\nproc b =\n"
        "    | y => ->\n"
        "        on y do\n"
        "            hput Go\n"
        "            get w\n"
        "            halt\n"
        "\nproc run =\n"
        "    | => ->\n"
        "        plug\n"
        "            a( | => z )\n"
        "            b( | z => )\n",
        14, 13, "cannot hput on 'y': its type Go at polarity - only allows "
                "hcase"),
    # Both ends send and neither receives; this used to run to DONE.
    "both-ends-send": (
        _DONE + "\nproc a =\n"
        "    | => x -> do\n"
        "        hput Done on x\n"
        "        close x\n"
        "\nproc b =\n"
        "    | y => -> do\n"
        "        hput Done on y\n"
        "        halt y\n"
        "\nproc run =\n"
        "    | => -> plug\n"
        "        a( | => z )\n"
        "        b( | z => )\n",
        11, 9, "cannot hput on 'y': its type Go at polarity - only allows "
               "hcase"),
    # An inline plug gives its first branch the output end of `z`.  The
    # `hcase` there is now rejected where it stands (8:17); it used to be
    # taken as the protocol's receiving end and the `hput` was rejected
    # (12:17).
    "hcase-on-the-output-end": (
        _DONE + "\nproc run =\n"
        "    | => ->\n"
        "        plug\n"
        "            do\n"
        "                hcase z of\n"
        "                    Done -> do\n"
        "                        halt z\n"
        "            do\n"
        "                hput Done on z\n"
        "                close z\n",
        8, 17, "cannot hcase on 'z': its type Go at polarity + only allows "
               "hput"),
}


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("name", HANDLES)
def test_a_handle_command_at_the_wrong_end_is_rejected(tmp_path, name,
                                                       command):
    text, line, col, message = HANDLES[name]
    src = tmp_path / "prog.campl"
    src.write_text(text, encoding="utf-8")
    r = CliRunner().invoke(main, [command, str(src)])
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == f"{src}:{line}:{col}: PolarityViolation: {message}\n"
    assert "Traceback" not in r.output
