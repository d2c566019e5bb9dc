"""The generator's coverage floor: the commands of each kind that
`tests/genprog.py` emits over seeds 0-299, with and without a `|=|`
forwarder.  Every test that draws from the generator sees only these
kinds, so a change that drops one, or emits fewer of one, fails here.
A change that widens the generator updates the counts on purpose.
"""

from collections import Counter

import pytest

from conftest import sub_bodies
from genprog import gen_program, with_forwarder

SEEDS = range(300)

PLAIN = {"PutVal": 1628, "GetVal": 1628, "Halt": 1537, "Call": 1198,
         "Close": 937, "Fork": 339, "Split": 339, "Plug": 300}


def _kinds(program) -> Counter:
    """Commands of each class in `program`, nested bodies included."""
    counts = Counter()
    bodies = [d.body for d in program.decls]
    while bodies:
        for cmd in bodies.pop():
            counts[type(cmd).__name__] += 1
            bodies.extend(sub_bodies(cmd))
    return counts


@pytest.mark.parametrize("forwarder,expected", [
    (False, PLAIN),
    (True, {**PLAIN, "Call": 1498, "Link": 300}),
], ids=["plain", "forwarder"])
def test_generator_emits_each_command_kind_as_often_as_before(forwarder,
                                                              expected):
    total = Counter()
    for seed in SEEDS:
        program = gen_program(seed)
        if forwarder:
            program = with_forwarder(program, True, seed)
        total += _kinds(program)
    assert dict(total) == expected
