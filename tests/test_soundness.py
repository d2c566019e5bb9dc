"""Checker/runtime agreement under mutation.

Randomly corrupt generated programs; every mutant the checker still
accepts must run to completion with no machine faults, no deadlock, and
the topology monitor quiet.  This is the teeth behind the static
discipline: anything the checker lets through is safe to execute.
"""

import random
import re

from campl.checker import check_program
from campl.diagnostics import CheckFailure, ParseFailure
from campl.elaborate import prepare
from campl.parser import parse_source
from campl.printer import roundtrip_print
from campl.runtime import boot
from campl.services import ServiceConfig
from conftest import run_watched
from genprog import gen_program, with_forwarder


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
