"""Per-layer timing and counts for the traced run.

The tracer patches campl's public functions at the names through which
the CLI and the parser reach them, so every span is timed from outside the
package.  No wrapped call runs inside another wrapped call, so layer times
add up and `cli.overhead_s` is what is left of the operation time.

Two things outside timing cannot separate: the Console drain runs inside
`Machine.step`, and `check_program` calls `prepare` itself (only the CLI's
second `prepare` in `campl run` shows as `elaborate.prepare_s`).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import campl.checker
import campl.cli
import campl.lexer
import campl.parser
import campl.runtime
from campl.runtime import DEFAULT_MAX_STEPS, Machine, Outcome, OutcomeKind

# Layer name -> (object holding the name the caller looks up, attribute).
TIMED = {
    "lexer.tokenize": (campl.lexer, "tokenize"),
    "parser.parse_program": (campl.parser, "parse_program"),
    "checker.check_program": (campl.cli, "check_program"),
    "elaborate.prepare": (campl.cli, "prepare"),
    "printer.roundtrip_print": (campl.cli, "roundtrip_print"),
    "runtime.boot": (campl.cli, "boot"),
}
# Timed by the hand-driven run loop below.
LOOP = ("runtime.assert_invariants", "runtime.pick", "runtime.step")
LAYERS = tuple(TIMED) + LOOP

EVENT_KINDS = ("PUT", "GET", "HPUT", "HCASE", "CLOSE", "HALT", "FORK",
               "SPLIT", "PLUG", "RACE", "CALL", "USE", "LINK", "NEG")


def trace_digest(trace) -> str:
    return hashlib.sha256(
        "\n".join(ev.render() for ev in trace).encode()).hexdigest()


class Tracer:
    """Accumulates layer busy time and run counters over traced ops."""

    def __init__(self):
        self.busy: Counter = Counter()
        self.counts: Counter = Counter()
        self.live_channels_peak = 0
        self.live_processes_peak = 0
        self.machines: list[Machine] = []

    @contextmanager
    def installed(self):
        saved = [(obj, attr, getattr(obj, attr))
                 for obj, attr in TIMED.values()]
        saved += [(Machine, "run_to_completion", Machine.run_to_completion),
                  (Machine, "enabled", Machine.enabled),
                  (campl.runtime, "resolve_race", campl.runtime.resolve_race)]
        try:
            for layer, (obj, attr) in TIMED.items():
                setattr(obj, attr, self._timed(layer, getattr(obj, attr)))
            Machine.run_to_completion = self._run_loop()
            Machine.enabled = self._counted("enabled", Machine.enabled)
            campl.runtime.resolve_race = self._counted(
                "race_draws", campl.runtime.resolve_race)
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)

    def _timed(self, layer: str, fn):
        busy, counts = self.busy, self.counts

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy[layer] += perf_counter() - t0
            if layer == "lexer.tokenize":
                counts["tokens"] += len(result)
            return result
        return timed

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _run_loop(self):
        """`Machine.run_to_completion` driven by hand, one timed call each
        to `assert_invariants`, `pick` and `step`, with the same stop
        rules in the same order."""
        tracer = self
        busy, counts = self.busy, self.counts

        def run_to_completion(machine: Machine,
                              max_steps: int = DEFAULT_MAX_STEPS) -> Outcome:
            if max_steps <= 0:
                raise ValueError("max_steps must be positive")
            tracer.machines.append(machine)
            while True:
                chans, procs = len(machine.channels), len(machine.processes)
                counts["monitor_calls"] += 1
                counts["channels_visited"] += chans
                counts["processes_seen"] += procs
                if chans > tracer.live_channels_peak:
                    tracer.live_channels_peak = chans
                if procs > tracer.live_processes_peak:
                    tracer.live_processes_peak = procs
                t0 = perf_counter()
                machine.assert_invariants()
                t1 = perf_counter()
                busy["runtime.assert_invariants"] += t1 - t0
                if not machine.processes:
                    kind = (OutcomeKind.STUCK if machine.channels
                            else OutcomeKind.DONE)
                    return Outcome(kind, machine.steps, machine.trace,
                                   machine)
                p = machine.pick()
                t2 = perf_counter()
                busy["runtime.pick"] += t2 - t1
                if p is None:
                    stuck = {pid: machine.waiting_on(q)
                             for pid, q in sorted(machine.processes.items())}
                    return Outcome(OutcomeKind.STUCK, machine.steps,
                                   machine.trace, machine, stuck)
                counts["picks"] += 1
                if machine.steps >= max_steps:
                    return Outcome(OutcomeKind.STEP_LIMIT, machine.steps,
                                   machine.trace, machine)
                machine.step(p)
                busy["runtime.step"] += perf_counter() - t2
        return run_to_completion

    def collect_machines(self) -> list[str]:
        """Fold the finished machines' traces into the counters and return
        their trace digests; call outside the timed operation."""
        digests = []
        for m in self.machines:
            self.counts["steps"] += m.steps
            self.counts["trace_events_retained"] += len(m.trace)
            self.counts["console_lines"] += len(m.config.outputs)
            for ev in m.trace:
                self.counts["events." + ev.kind] += 1
            digests.append(trace_digest(m.trace))
        self.machines.clear()
        return digests
