"""The benchmark's per-layer tracer patches campl by attribute name, so a
refactor that drops or renames one of those names breaks the benchmark
with an AttributeError, and its hand-driven run loop must replay the
machine's own.  These tests load the tracer from its file, check every
name it reaches, and compare the traces of both loops.  The next tests hold
the machine to its budgets of Python calls and bytecodes per step and of
memory per run, the checker to its budget of calls per command, the parser
to its budget of calls per token, a record to one frame per construction,
`==` and `hash`, `import campl.cli` to its budget of calls, and the parser
and the checker to their budgets of stack frames per level of nesting;
one checks that each channel keyword the checker looks up has a row in
the command matrix.
The last tests keep `src/campl` free of module-level names nothing reads
and of `dataclasses`."""

import ast
import gc
import operator
import os
import subprocess
import sys
import tracemalloc

import pytest

import campl
import campl.runtime
from campl import checker
from campl.checker import check_program
from campl.elaborate import ExecProgram
from campl.lexer import tokenize
from campl.model import COMMAND_HEADS, INT, TOPBOT, Call, Pos, ProcDef, Put
from campl.parser import parse_program, parse_source
from campl.runtime import EndState, Machine, boot
from campl.services import ServiceConfig
from conftest import ROOT, command_count, corpus_text, load_perfbench
from test_runtime import FORWARDER_CHAIN, churn_text
from test_traversal import _fork_tower


TRACER = load_perfbench("tracer")
LISTING7 = corpus_text("listing7.campl")


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
    # benchmark's 1000-message `churn0`), 10.90 after (33,883 calls), 5.56
    # once `run_to_completion` ran the monitor, pick and step inline, the
    # handlers returned plain trace rows and the hot paths bound their end
    # without calling `_binding` (17,262 calls), 5.552 once the monitor's
    # union-find became `cycle_edges` and an hcase scanned its arms
    # instead of looking up a plan (17,260 calls), 5.423 once the monitor
    # read the ends pending through a released end from the fork messages
    # in its inbox, so it no longer resolved ends already claimed (16,860
    # calls), 5.293 once a channel was its two ends and no `ChannelState`
    # was built (16,456 calls), 5.035 once a put sent its value and an
    # hput its handle's name, unwrapped (15,654 calls), 4.970 once a
    # process kept one continuation and `_advance` no longer walked a
    # stack of frames (15,453 calls), 4.713 once a put's or get's row kept
    # its value and `render` ran only when an event was built (14,653
    # calls), 4.006 once plug and fork plans carried their shape and a
    # released end was recorded only with fork messages in its inbox, so
    # the loop's in-line test passed every step after boot (12,454 calls).
    # The count is exact for a given interpreter, so a rise means
    # new per-step calls.  It pauses the collector, as the CLI does: a gc
    # callback an earlier test registered (Hypothesis's) would otherwise
    # add two calls per collection.
    calls, outcome = _count_calls(_booted(churn_text(100)).run_to_completion)
    assert outcome.done and outcome.steps == 3109
    assert calls / outcome.steps <= 4.0058, f"{calls} calls"
    # Churn runs no |=|, so the forwarder chain's six links make a second
    # input: 295 calls over its 21 steps while a link built a channel and
    # two ends only to drop the ends, 255 once it built none, 226 once its
    # plugs' and forks' steps recorded nothing for the monitor.
    calls, outcome = _count_calls(_booted(FORWARDER_CHAIN).run_to_completion)
    assert outcome.done and outcome.steps == 21
    assert [ev.kind for ev in outcome.trace].count("LINK") == 6
    assert calls <= 226, f"{calls} calls"
    # Listing 7 makes a third, heavy in hcases: 8 of its 50 steps enter an
    # arm, against 201 hcases and races in churn's 3,109 steps.  242 calls
    # while an arm was a frame pushed on a stack, 234 once it became the
    # process's continuation, 219 once a row kept its value unrendered,
    # 212 once plugs recorded nothing for the monitor.
    calls, outcome = _count_calls(_booted(LISTING7).run_to_completion)
    assert outcome.done and outcome.steps == 50
    assert [ev.kind for ev in outcome.trace].count("HCASE") == 8
    assert calls <= 212, f"{calls} calls"


def test_machine_steps_stay_within_their_bytecode_budget():
    # Bytecodes (`sys.settrace` "opcode" events) on the same run: the call
    # budget cannot see work added inline.  958,299 over 3,109 steps (308.2
    # a step) with each end's pending ends kept in a `links` field and its
    # peer found by index arithmetic, 934,733 (300.7) once each end named
    # its peer and the monitor read pending ends from fork messages,
    # 916,636 (294.8) once a channel was its two ends, 907,616 (291.9) once
    # a message was what it carries, 860,986 (276.9) once a process kept
    # one continuation in place of a stack of frames, 841,400 (270.6) once
    # a step added its row's fields to one flat list, a row kept its value
    # unrendered and a reaped channel's ends were unlinked, 748,524 (240.8)
    # once plug, fork, split and close steps recorded nothing for the
    # monitor and the loop skipped `assert_invariants` after them.  The
    # count is
    # exact for a given interpreter and does not depend on the hash seed;
    # like `_count_calls`, it pauses the collector.
    ops, outcome = _count_bytecodes(_booted(churn_text(100)))
    assert outcome.done and outcome.steps == 3109
    assert ops <= 748_524, f"{ops} bytecodes"
    # Listing 7, whose hcases enter arms, as in the call budget: 13,367
    # bytecodes with frames, 12,317 with one continuation, 11,918 with
    # flat rows of unrendered values, 11,560 with steps that record nothing
    # for the monitor.
    ops, outcome = _count_bytecodes(_booted(LISTING7))
    assert outcome.done and outcome.steps == 50
    assert ops <= 11_560, f"{ops} bytecodes"


def test_machine_steps_stay_within_their_memory_budget():
    # The tracemalloc peak of the same run, the collector paused as in
    # `_count_calls`, with this test run alone: 1,032,679 bytes (332.2 a
    # step) while a step kept a row tuple and its rendered payload and
    # each reaped channel's two ends, still naming each other, stayed for
    # the paused collector with their inboxes; 173,269 (55.7) once a step
    # added the row's five fields to one flat list, a payload stayed the
    # value and reaping unlinked the ends.  The kept rows are nearly all
    # of it, so a rise means more kept per step or a new reference cycle.
    # After the rest of this file the two read 862,767 and 166,909,
    # because objects the earlier tests freed are reused from free lists
    # that tracemalloc does not see.
    peak, outcome = _peak_bytes(_booted(churn_text(100)))
    assert outcome.done and outcome.steps == 3109
    assert peak <= 173_269, f"{peak} bytes"


def _peak_bytes(machine: Machine) -> tuple:
    """The tracemalloc peak of `machine`'s `run_to_completion`, and its
    outcome, with the collector paused as in `_count_calls`."""
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        outcome = machine.run_to_completion()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return peak, outcome


def _count_bytecodes(machine: Machine) -> tuple:
    """Bytecodes (`sys.settrace` "opcode" events) `machine`'s
    `run_to_completion` runs, and its outcome, with the collector paused
    as in `_count_calls`."""
    ops = 0

    def local(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    enabled = gc.isenabled()
    gc.disable()
    saved = sys.gettrace()
    sys.settrace(start)
    try:
        outcome = machine.run_to_completion()
    finally:
        sys.settrace(saved)
        if enabled:
            gc.enable()
    return ops, outcome


def _booted(text: str) -> Machine:
    """A booted machine for the checked program `text`, seed 0."""
    program = check_program(parse_source(text)).exec_program
    return boot(program, services=ServiceConfig.from_script([]))


def test_checker_stays_within_its_call_budget():
    # Python-level calls (`sys.setprofile` "call" events) per checked
    # command, over the five `frontend` programs (seed 7) that check at the
    # default recursion limit: 29.9 when commands dispatched through an
    # `isinstance` chain and every `shape` went through `legality` (282,512
    # calls for 9,460 commands), 20.24 with table dispatch and legality
    # diagnosed only on a miss (191,495), 17.26 once `prepare` recorded the
    # call graph as it desugared (no second walk for `_scc_order`) and the
    # checker built each handle's unfolding once per application node
    # (163,278; 163,253 once `check_plug` read the one share-out rule),
    # 17.223 once a handler said "ended" one way and `check_use` built no
    # placeholder names (162,923), 16.893 once hcase, fork and race arms
    # were one `Arm` class that `map_command` reads and rebuilds in C, with
    # no per-kind lambda (159,808; 17.026 while it still read the arms'
    # bodies in a list comprehension), 16.795 once call, use and process
    # nodes set their channel lists in `__init__`, with no `__post_init__`
    # call (158,873).
    # `check_program` includes `prepare`, so desugaring counts too.  The
    # count is exact for a given interpreter, so a rise means new
    # per-command calls.
    programs = load_perfbench("programs")
    calls = commands = 0
    for source in _answered_frontend_sources(programs):
        program = parse_source(source)
        n, typed = _count_calls(check_program, program)
        calls += n
        commands += sum(command_count(d.body)
                        for d in typed.exec_program.procs.values())
    assert commands == 9460
    assert calls / commands <= 16.7942, f"{calls} calls"


def test_parser_stays_within_its_call_budget():
    # Python-level calls per token that `parse_program` reads, lexing
    # excluded, over the same five programs: 3.82 when each command
    # handler took its own keyword and the name lists, `on` channels and
    # bodies read the cursor through `at`, `at_kind` and `take` (224,769
    # calls for 58,798 tokens), 3.12 once `parse_command` passed the
    # keyword to the handler and those readers indexed the token list
    # (183,419), 3.093 once hcase, fork and split read their optional
    # channel through one such reader (181,844), 3.060 once call and
    # process nodes set their channel lists in `__init__` (179,919).
    # Exact for a given interpreter, as above.
    programs = load_perfbench("programs")
    calls = tokens = 0
    for source in _answered_frontend_sources(programs):
        toks = tokenize(source)
        n, _ = _count_calls(parse_program, toks)
        calls += n
        tokens += len(toks)
    assert tokens == 58798
    assert calls / tokens <= 3.0600, f"{calls} calls"


@pytest.mark.parametrize("f, args", [
    (Call, ("p", (), ("a",), ("b",), Pos(1, 2))),
    (ProcDef, ("p", None, (), ("a",), ("b",), ())),
    (EndState, (0, "c")),
    (ServiceConfig, ()),
    (ExecProgram, ({},)),
    (operator.eq, (Put(INT, TOPBOT), Put(INT, TOPBOT))),
    (hash, (Pos(1, 2),)),
], ids=["Call", "ProcDef", "EndState", "ServiceConfig", "ExecProgram",
        "type-eq", "Pos-hash"])
def test_a_record_constructs_compares_and_hashes_in_one_frame(f, args):
    # The checker and the machine build, compare and hash nodes in their
    # inner loops, and the budgets above count every frame.  A derived
    # field (`Call.chan_args`, `ProcDef.chan_params`) is set in the one
    # `__init__`, and a default factory is called from it.
    calls, _ = _count_calls(f, *args)
    assert calls == 1


# Counts the Python-level calls of `import campl.cli` once the heavy
# imports it shares with other programs are loaded; prints the count.
IMPORT_PROBE = """\
import gc, sys
import click, dataclasses, enum, inspect, re, typing
calls = 0
def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1
gc.disable()
sys.setprofile(count)
import campl.cli
sys.setprofile(None)
print(calls)
"""


def test_import_stays_within_its_call_budget(tmp_path):
    # Python-level calls of `import campl.cli` in a fresh process that
    # compiles campl from source (no bytecode written, an empty private
    # cache), after `click` and the standard modules campl uses are
    # loaded: 13,901 while `dataclasses` built the record classes, 5,622
    # once `model.record` built each from one exec'd source, 5,191 once
    # every record was slotted through one build path whose field loop
    # also gathers `__match_args__` and the `__eq__` keys (no generator
    # frames), 5,139 once the machine's `HandOff` plan was a plain
    # `namedtuple` (`typing.NamedTuple` checks each field's annotation).
    # Exact for a given interpreter and hash seed alike, so a
    # rise means new work at import: more classes, or a class built more
    # dearly.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    calls = int(done.stdout)
    assert calls <= 5_139, f"{calls} calls"


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


def test_every_checked_channel_keyword_names_a_command_row():
    # `check_body` looks up the one channel of each command `_CHECKS` gives
    # a keyword, and the handler's `shape` reads that keyword's row.
    words = {word for _, word in checker._CHECKS.values()} - {None}
    assert len(words) == 9 and words <= COMMAND_HEADS.keys()


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
    # References only the tests use live in `tests/conftest.py`.
    assert _unread_module_names() == set()


def test_no_campl_module_imports_dataclasses():
    # `model.record` builds every record class.  Built by `dataclasses`,
    # they cost `import campl.cli` 2.5 times as many Python calls (see
    # `test_import_stays_within_its_call_budget`).
    for path in sorted((ROOT / "src" / "campl").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module]
            else:
                continue
            assert "dataclasses" not in names, path.name
