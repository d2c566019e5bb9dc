"""campl benchmark: end-to-end CLI latency per workload, or a traced run
with per-layer numbers.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 36 \
        --trace 0

Run it from the root of a campl checkout.  One process, one thread, one
closed loop: every operation is an in-process `campl` CLI invocation
through `campl.cli.main` that starts only after the previous one ended.
Operations repeat in whole passes over the workload's seeded inputs until
`--seconds` have gone by.  Every operation's exit code and stdout are
checked against what the generator expects.

Each operation's time is scaled by a fixed reference loop timed just before
and after it, so that contention from outside the process, which slows
both alike, cancels out.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones.  perfbench/README.md describes the workloads and metrics.
The exit code is 0 unless an operation gave a wrong answer (a failure on
an input listed as a known defect is counted, not wrong), a set-up probe
failed, or the campl sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import programs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 3
# One reference loop counts as this many seconds: about its fastest time on
# the 2-vCPU Xeon guest the bounds were set on.
REF_NOMINAL_S = 0.008
REF_ITERATIONS = 14000


@dataclass
class Result:
    seconds: float
    code: int
    stdout: str
    stderr: str


def invoke(args: list[str]) -> Result:
    """One `campl` invocation as a user pays it, minus interpreter start:
    argument parsing, the command, and SystemExit handling.  An uncaught
    exception is reported on stderr with its traceback and exit code 1,
    as the interpreter would."""
    from campl.cli import main
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main.main(args=args, prog_name="campl")
            code = 0
        except SystemExit as e:
            code = 0 if e.code is None else \
                e.code if isinstance(e.code, int) else 1
        except Exception as e:      # the crash is the measured outcome
            crash, code = e, 1
    seconds = perf_counter() - t0
    if crash is not None:
        err.write("".join(traceback.format_exception(crash)))
    return Result(seconds, code, out.getvalue(), err.getvalue())


class _Link:
    __slots__ = ("key", "value", "rest")

    def __init__(self, key, value, rest):
        self.key, self.value, self.rest = key, value, rest


def reference_s() -> float:
    """Wall time of a fixed slice of interpreter work that no campl change
    touches: object allocation, attribute reads, dict updates and integer
    arithmetic, the kinds of work campl's own time goes to."""
    gc.collect()
    t0 = perf_counter()
    table, head = {}, None
    for i in range(REF_ITERATIONS):
        head = _Link(i & 255, i, head if i & 7 else None)
        table[i & 511] = (table.get((i * 7) & 511, 0) + head.value) & 0xffff
    acc = 0
    for i in range(2 * REF_ITERATIONS):
        acc = (acc * 31 + i) & 0xffffff
        table[i & 255] = acc
    return perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` at the reference speed: the wall time times the nominal
    over the measured reference time around it."""
    return seconds * 2 * REF_NOMINAL_S / (ref_before + ref_after)


def judge(op: programs.Op, res: Result) -> str | None:
    """Why the operation failed, or None when it matched the oracle."""
    if "Traceback" in res.stderr:
        return "traceback: " + res.stderr.strip().splitlines()[-1]
    if res.code != op.code:
        return f"exit code {res.code}, expected {op.code}"
    if not op.accepts(res.stdout):
        return "stdout differs from the expected output"
    return None


class Session:
    """A workload's inputs written to a private directory in the checkout,
    plus the pass/fail bookkeeping of the operations run on them."""

    def __init__(self, name: str, seed: int):
        self.workload = programs.WORKLOADS[name](seed)
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for key, text in self.workload.sources.items():
            path = self.dir / f"{key}.campl"
            path.write_text(text, encoding="utf-8")
            self.paths[key] = str(path)
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def run(self, op: programs.Op) -> tuple[Result, bool]:
        """Run one operation; returns its result and whether it passed."""
        gc.collect()
        res = invoke([op.kind, self.paths[op.program], *op.args])
        self.attempted += 1
        why = judge(op, res)
        if why is not None:
            self.failed += 1
            if op.known_defect is None:
                self.wrong.append(f"{op.kind} {op.program}: {why}")
        return res, why is None

    def warm_up(self) -> None:
        first = self.workload.ops[0]
        for op in self.workload.ops:
            if op.program == first.program:
                self.run(op)
        self.attempted = self.failed = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    its value (the maximum when there are ten samples or fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, math.inf
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


# ---------------------------------------------------------------------------
# set-up probes: fresh processes

def probe(name: str, seed: int, one_pass: bool) -> dict:
    """Time import, generation and warm-up; with `one_pass`, then run
    every operation once and report the process's peak RSS, which then
    covers a fixed amount of work whatever the run length."""
    reference_s()                   # the first call also warms the loop
    ref_before = reference_s()
    t0 = perf_counter()
    import campl.cli  # noqa: F401  (the import is part of set-up)
    session = Session(name, seed)
    try:
        session.warm_up()
        wall = perf_counter() - t0
        report = {"setup_s": scaled(wall, ref_before, reference_s()),
                  "setup_wall_s": wall}
        if one_pass:
            for op in session.workload.ops:
                session.run(op)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            report["peak_rss_mb"] = rss_kib / 1024
    finally:
        session.close()
    return report


def run_probes(name: str, seed: int) -> tuple[float, float]:
    """Median scaled set-up time of SETUP_PROBES fresh processes, and the
    peak RSS of the first, which also runs one pass."""
    reports = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(seed), "--probe"]
        if i == 0:
            cmd.append("--probe-pass")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
    walls = ", ".join(f"{r['setup_wall_s']:.4g}" for r in reports)
    print(f"setup_s: {walls} s unscaled wall time in {len(reports)} "
          f"fresh processes")
    return (statistics.median(r["setup_s"] for r in reports),
            reports[0]["peak_rss_mb"])


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def measure(session: Session, seconds: float) -> dict:
    """Medians (a failed operation counts as +inf) and tails (answered
    operations only) of the scaled operation times."""
    wl = session.workload
    which = {wl.primary: "op_s", "dump-ast": "dump_ast_s"}
    times = {"op_s": [], "dump_ast_s": []}
    answered = {"op_s": [], "dump_ast_s": []}
    wall = {"op_s": [], "dump_ast_s": []}
    ref_before = reference_s()
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in wl.ops:
            res, ok = session.run(op)
            ref_after = reference_s()
            t = scaled(res.seconds, ref_before, ref_after)
            ref_before = ref_after
            name = which[op.kind]
            wall[name].append(res.seconds)
            times[name].append(t if ok else math.inf)
            if ok:
                answered[name].append(t)
    values = {}
    for name, kind in (("op_s", wl.primary), ("dump_ast_s", "dump-ast")):
        values[f"{name}.p50"] = nearest_rank(times[name], 0.5)
        pct, value = tail(answered[name])
        print(f"{name}: {len(times[name])} `campl {kind}` operations; "
              f"tail is p{pct:.1f} of {len(answered[name])} answered = "
              f"{value:.6g} s; unscaled wall p50 = "
              f"{nearest_rank(wall[name], 0.5):.6g} s")
        if name == "op_s":
            values["op_s.tail"] = value
    values["answered_ratio"] = 1 - session.failed / session.attempted
    return values


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def traced(session: Session, seconds: float, seed: int) -> dict:
    import campl
    from tracer import EVENT_KINDS, LAYERS, Tracer, trace_digest

    wl = session.workload
    tracer = Tracer()
    plain_s = traced_s = 0.0
    passes = 0
    digests: dict[tuple[str, int], set[str]] = {}
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in wl.ops:
            res, _ = session.run(op)
            plain_s += res.seconds
            with tracer.installed():
                res, _ = session.run(op)
            traced_s += res.seconds
            for digest in tracer.collect_machines():
                digests.setdefault((op.program, op.seed), set()).add(digest)
        passes += 1

    # The hand-driven loop must replay exactly what run_to_completion does.
    for (key, seed_), seen in sorted(digests.items()):
        program = campl.parse_source(wl.sources[key])
        campl.check_program(program)
        machine = campl.boot(campl.prepare(program), seed_,
                             campl.ServiceConfig.live(echo=io.StringIO()))
        reference = trace_digest(machine.run_to_completion().trace)
        if seen != {reference}:
            session.wrong.append(f"traced run of {key} seed {seed_}: trace "
                                 f"digest differs from run_to_completion")

    busy, counts = tracer.busy, tracer.counts
    per_pass = lambda v: v / passes
    m = {f"{layer}_s": per_pass(busy[layer]) for layer in LAYERS}
    loop_s = sum(busy[layer] for layer in
                 ("runtime.assert_invariants", "runtime.pick", "runtime.step"))
    steps = counts["steps"]
    calls = counts["monitor_calls"]
    m.update({
        "lexer.tokens_per_s": counts["tokens"] / busy["lexer.tokenize"]
        if busy["lexer.tokenize"] else 0.0,
        "runtime.steps": per_pass(steps),
        "runtime.us_per_step": 1e6 * loop_s / steps if steps else 0.0,
        "runtime.monitor_channels_visited": per_pass(
            counts["channels_visited"]),
        "runtime.pick_hit_ratio": counts["picks"] / counts["enabled"]
        if counts["enabled"] else 0.0,
        "runtime.live_channels.mean": counts["channels_visited"] / calls
        if calls else 0.0,
        "runtime.live_channels.peak": tracer.live_channels_peak,
        "runtime.live_processes.mean": counts["processes_seen"] / calls
        if calls else 0.0,
        "runtime.live_processes.peak": tracer.live_processes_peak,
        "runtime.race_draws": per_pass(counts["race_draws"]),
        "runtime.trace_events_retained": per_pass(
            counts["trace_events_retained"]),
        "services.console_lines": per_pass(counts["console_lines"]),
        "cli.overhead_s": per_pass(traced_s - sum(busy.values())),
        "trace.overhead_ratio": traced_s / plain_s,
    })
    for kind in EVENT_KINDS:
        m[f"runtime.events.{kind}"] = per_pass(counts["events." + kind])
    m.update(sweep(seed, session))
    return m


def sweep(seed: int, session: Session) -> dict:
    """µs per step as the pipeline grows, and check time as fork nesting
    deepens, each called straight through the library."""
    import campl
    m = {}
    for k, text, expected in programs.sweep_pipelines(seed):
        program = campl.parse_source(text)
        campl.check_program(program)
        config = campl.ServiceConfig.live(echo=io.StringIO())
        machine = campl.boot(campl.prepare(program), 0, config)
        gc.collect()
        t0 = perf_counter()
        outcome = machine.run_to_completion()
        dt = perf_counter() - t0
        if not outcome.done or config.outputs != expected:
            session.wrong.append(f"sweep pipeline K={k}: wrong output")
        m[f"runtime.us_per_step.k{k}"] = 1e6 * dt / outcome.steps
    for d, text in programs.sweep_towers(seed):
        program = campl.parse_source(text)
        samples = []
        for _ in range(3):
            gc.collect()
            t0 = perf_counter()
            campl.check_program(program)
            samples.append(perf_counter() - t0)
        m[f"checker.check_program_s.d{d}"] = statistics.median(samples)
    return m


# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(programs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-pass", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "campl" / "cli.py").is_file():
        print(f"perfbench: no campl sources at {SRC}; run from the root of "
              f"a campl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe:
        print(json.dumps(probe(args.workload, args.seed, args.probe_pass)))
        return 0

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace == 0:
        setup_s, rss_mb = run_probes(args.workload, args.seed)
    import campl.cli  # noqa: F401
    session = Session(args.workload, args.seed)
    try:
        session.warm_up()
        gc.collect()
        gc.freeze()     # set-up objects are never rescanned by the GC
        if args.trace == 0:
            values = measure(session, args.seconds)
            values.update(setup_s=setup_s, peak_rss_mb=rss_mb)
        else:
            values = traced(session, args.seconds, args.seed)
    finally:
        session.close()
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from {SPEC.name}: "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    print(f"failed_ratio: {session.failed}/{session.attempted} operations")
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    for line in session.wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    correct = not session.wrong
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics},
                     allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
