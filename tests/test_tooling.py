"""The benchmark's per-layer tracer patches campl by attribute name, so a
refactor that drops or renames one of those names breaks the benchmark
with an AttributeError, and its hand-driven run loop must replay the
machine's own.  These tests load the tracer from its file, check every
name it reaches, and compare the traces of both loops.  The last tests hold
the machine to its budget of Python calls per step, the checker to its
budget of calls per command, the parser to its budget of calls per token,
and the parser and the checker to their budgets of stack frames per level
of nesting.  The last test keeps `src/campl` free of module-level names
nothing reads."""

import ast
import gc
import sys

import pytest

import campl
import campl.runtime
from campl.checker import check_program
from campl.lexer import tokenize
from campl.model import sub_bodies
from campl.parser import parse_program, parse_source
from campl.runtime import Machine, boot
from campl.services import ServiceConfig
from conftest import ROOT, corpus_text, load_perfbench
from test_runtime import FORWARDER_CHAIN, churn_text
from test_traversal import _fork_tower


TRACER = load_perfbench("tracer")


@pytest.mark.parametrize("layer", sorted(TRACER.TIMED))
def test_timed_layer_names_exist(layer):
    obj, attr = TRACER.TIMED[layer]
    assert callable(getattr(obj, attr))


def test_tracer_times_the_lexer_inside_parse_source():
    # The tracer patches `campl.lexer.tokenize`; the parser must reach the
    # lexer through that module attribute for the span to see it.
    src = corpus_text("listing7.campl")
    tracer = TRACER.Tracer()
    with tracer.installed():
        parse_source(src)
    assert tracer.busy["lexer.tokenize"] > 0
    assert tracer.counts["tokens"] == len(tokenize(src))


@pytest.mark.parametrize("attr", ["run_to_completion", "enabled",
                                  "assert_invariants", "pick", "step",
                                  "waiting_on"])
def test_machine_methods_the_tracer_drives_exist(attr):
    assert callable(getattr(Machine, attr))


def test_tracer_installs_and_restores_its_patches():
    originals = (Machine.run_to_completion, Machine.enabled,
                 campl.runtime.resolve_race)
    with TRACER.Tracer().installed():
        pass
    assert (Machine.run_to_completion, Machine.enabled,
            campl.runtime.resolve_race) == originals


@pytest.mark.parametrize("text", [corpus_text("listing7.campl"),
                                  FORWARDER_CHAIN, churn_text(12)],
                         ids=["listing7", "forwarder_chain", "churn"])
def test_tracer_loop_replays_run_to_completion(text):
    # The benchmark drives assert_invariants, pick and step by hand; its
    # trace must be the one the machine's own loop produces.
    program = check_program(parse_source(text)).exec_program
    plain = boot(program, services=ServiceConfig.from_script([])
                 ).run_to_completion()
    tracer = TRACER.Tracer()
    with tracer.installed():
        traced = boot(program, services=ServiceConfig.from_script([])
                      ).run_to_completion()
    assert (traced.kind, traced.steps) == (plain.kind, plain.steps)
    assert plain.done
    assert tracer.collect_machines() == [TRACER.trace_digest(plain.trace)]


def test_machine_steps_stay_within_their_call_budget():
    # Python-level calls (`sys.setprofile` "call" events) per machine step
    # on a 100-message churn run, seed 0: 14.61 before the step's own
    # bookkeeping was cut (45,410 calls over 3,109 steps; 14.58 on the
    # benchmark's 1000-message `churn0`), 10.90 after (33,883 calls).  The
    # count is exact for a given interpreter, so a rise means new per-step
    # calls.
    program = check_program(parse_source(churn_text(100))).exec_program
    machine = boot(program, services=ServiceConfig.from_script([]))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    saved = sys.getprofile()
    sys.setprofile(count)
    try:
        outcome = machine.run_to_completion()
    finally:
        sys.setprofile(saved)
    assert outcome.done and outcome.steps == 3109
    assert calls / outcome.steps <= 11.0, f"{calls} calls"


def test_checker_stays_within_its_call_budget():
    # Python-level calls (`sys.setprofile` "call" events) per checked
    # command, over the five `frontend` programs (seed 7) that check at the
    # default recursion limit: 29.9 when commands dispatched through an
    # `isinstance` chain and every `shape` went through `legality` (282,512
    # calls for 9,460 commands), 20.24 with table dispatch and legality
    # diagnosed only on a miss (191,495), 17.26 once `prepare` recorded the
    # call graph as it desugared (no second walk for `_scc_order`) and the
    # checker built each handle's unfolding once per application node
    # (163,278; 163,253 once `check_plug` read the one share-out rule).  `check_program` includes `prepare`, so desugaring counts
    # too.  The count is exact for a given interpreter, so a rise means new
    # per-command calls.
    programs = load_perfbench("programs")
    calls = commands = 0
    for source in _answered_frontend_sources(programs):
        program = parse_source(source)
        n, typed = _count_calls(check_program, program)
        calls += n
        commands += sum(_command_count(d.body)
                        for d in typed.exec_program.procs.values())
    assert commands == 9460
    assert calls / commands <= 17.26, f"{calls} calls"


def test_parser_stays_within_its_call_budget():
    # Python-level calls per token that `parse_program` reads, lexing
    # excluded, over the same five programs: 3.82 when each command
    # handler took its own keyword and the name lists, `on` channels and
    # bodies read the cursor through `at`, `at_kind` and `take` (224,769
    # calls for 58,798 tokens), 3.12 once `parse_command` passed the
    # keyword to the handler and those readers indexed the token list
    # (183,419), 3.093 once hcase, fork and split read their optional
    # channel through one such reader (181,844).  Exact for a given
    # interpreter, as above.
    programs = load_perfbench("programs")
    calls = tokens = 0
    for source in _answered_frontend_sources(programs):
        toks = tokenize(source)
        n, _ = _count_calls(parse_program, toks)
        calls += n
        tokens += len(toks)
    assert tokens == 58798
    assert calls / tokens <= 3.093, f"{calls} calls"


def _answered_frontend_sources(programs) -> list[str]:
    """The `frontend` programs (seed 7) that parse and check at the default
    recursion limit."""
    workload = programs.frontend(7)
    return [workload.sources["frontend-n%d-d%d" % shape]
            for shape in programs.FRONTEND_SHAPES
            if shape not in programs.FRONTEND_DEFECTS]


def _count_calls(f, *args) -> tuple:
    """Python-level calls `f(*args)` makes, and its result.  The cyclic
    collector is paused as the CLI pauses it, so no finalizer of an earlier
    test's garbage runs inside the count."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    enabled = gc.isenabled()
    gc.disable()
    saved = sys.getprofile()
    sys.setprofile(count)
    try:
        result = f(*args)
    finally:
        sys.setprofile(saved)
        if enabled:
            gc.enable()
    return calls, result


def _command_count(body: tuple) -> int:
    return sum(1 + sum(map(_command_count, sub_bodies(cmd))) for cmd in body)


def _peak_depth(f, *args) -> int:
    """The deepest Python call stack `f(*args)` reaches, counted from the
    call (`sys.setprofile` "call" and "return" events; a generator counts
    while it runs)."""
    depth = peak = 0

    def count(frame, event, arg):
        nonlocal depth, peak
        if event == "call":
            depth += 1
            peak = max(peak, depth)
        elif event == "return":
            depth -= 1

    saved = sys.getprofile()
    sys.setprofile(count)
    try:
        f(*args)
    finally:
        sys.setprofile(saved)
    return peak


def test_the_parser_spends_at_most_four_frames_per_fork_level():
    # A fork arm's body is read through `parse_command`, the fork's
    # handler, the arm reader and `parse_body`: 213 frames at depth 50 and
    # 413 at depth 100.  A fifth frame per level would lower the deepest
    # tower that parses at the default recursion limit from 246 levels to
    # about 197.
    low, high = (_peak_depth(parse_source, _fork_tower(n))
                 for n in (50, 100))
    assert high - low <= 4 * 50, (low, high)


def test_the_checker_spends_at_most_two_frames_per_fork_level():
    # The checker's deepest walks take two frames per level of the tower:
    # `check_body` and the fork's handler, which `check_body` calls
    # straight from its table, and the occurs check and `Solved.zonk` over
    # the tower's channel type: 114 frames at depth 50 and 214 at depth
    # 100.  Dispatch through `check_command`, and a second `zonk` frame
    # per solved variable, each took a third (159 and 309).
    low, high = (_peak_depth(check_program, parse_source(_fork_tower(n)))
                 for n in (50, 100))
    assert high - low <= 2 * 50, (low, high)


# Module-level names that only the tests read, as references for what the
# package computes another way.
READ_BY_TESTS = {"elaborate.free_chans", "model.sub_bodies"}


def _unread_module_names() -> set[str]:
    """`module.name` for each name a top-level statement of `src/campl`
    binds that no other top-level statement reads and `campl.__all__` does
    not export.  A read is a name, an imported name, or an attribute of a
    module of the package (`lexer.tokenize`, `dk.SEQ_MISMATCH`); a
    decorated function counts as read by its decorator."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "campl").glob("*.py"))}
    readers: dict[str, set[int]] = {}
    for tree in trees.values():
        modules = {a.asname or a.name for stmt in tree.body
                   if isinstance(stmt, ast.ImportFrom) and stmt.level
                   and stmt.module is None for a in stmt.names}
        for stmt in tree.body:
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    name = n.id
                elif isinstance(n, ast.Attribute) \
                        and isinstance(n.value, ast.Name) \
                        and n.value.id in modules:
                    name = n.attr
                elif isinstance(n, ast.alias):
                    name = n.name
                else:
                    continue
                readers.setdefault(name, set()).add(id(stmt))
    unread = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [] if stmt.decorator_list else [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") or name in campl.__all__
                        or readers.get(name, set()) - {id(stmt)}):
                    unread.add(f"{module}.{name}")
    return unread


def test_every_module_level_name_is_read():
    assert _unread_module_names() == READ_BY_TESTS
