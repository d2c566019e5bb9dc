"""Command-line front door: check, run, and dump programs.

Exit codes are stable: 0 success / run finished, 1 diagnostics or a
runtime fault, 2 usage or I/O failure, 3 deadlock (stuck), 4 step limit.
Program output goes to stdout; diagnostics, traces, and reports go to
stderr.
"""

from __future__ import annotations

import contextlib
import gc
import sys

import click

from .checker import TypedProgram, check_program
from .diagnostics import CheckFailure, Diagnostic, ParseFailure
from .elaborate import prepare
from .model import ProcDef, SourceProgram
from .parser import parse_source
from .printer import roundtrip_print
from .runtime import (
    DEFAULT_MAX_STEPS, MachineFault, BootError, OutcomeKind, boot,
)
from .services import ScriptExhausted, ServiceConfig


def _emit(errors: list[Diagnostic], filename: str, as_json: bool) -> None:
    for d in errors:
        line = d.json_line(filename) if as_json else d.text(filename)
        click.echo(line, err=True)


def _load(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        click.echo(f"cannot read {path}: {e}", err=True)
        raise SystemExit(2)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then restore the caller's
    setting.  The front end's tokens and trees survive until it returns
    and it makes no reference cycles, so a collection while it builds them
    only rescans live objects; the next collection after the phase
    reclaims what an error path left."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse(path: str, as_json: bool) -> SourceProgram:
    with _gc_paused():
        try:
            return parse_source(_load(path))
        except ParseFailure as e:
            _emit(e.errors, path, as_json)
            raise SystemExit(1)


def _check(program: SourceProgram, path: str, as_json: bool) -> TypedProgram:
    with _gc_paused():
        try:
            return check_program(program)
        except CheckFailure as e:
            _emit(e.errors, path, as_json)
            raise SystemExit(1)


def _lint_run_position(program: SourceProgram) -> None:
    procs = [d for d in program.decls if isinstance(d, ProcDef)]
    if procs and any(d.name == "run" for d in procs) \
            and procs[-1].name != "run":
        click.echo("note: style prefers 'run' as the final process "
                   "definition", err=True)


@click.group()
def main() -> None:
    """Check and execute .campl programs."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json-diagnostics", is_flag=True,
              help="Emit machine-readable JSON-lines diagnostics.")
def check(file: str, json_diagnostics: bool) -> None:
    """Type-check FILE; silent and exit 0 when it is well-typed."""
    program = _parse(file, json_diagnostics)
    _lint_run_position(program)
    _check(program, file, json_diagnostics)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True, help="RNG seed; races are its only users.")
@click.option("--stdin", "script_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Console input script, one line per message.")
@click.option("--trace", is_flag=True, help="Stream the trace to stderr.")
@click.option("--max-steps", type=click.IntRange(min=1),
              default=DEFAULT_MAX_STEPS, show_default=True)
@click.option("--unchecked", is_flag=True,
              help="Skip the type checker (deadlocks become reachable).")
@click.option("--json-diagnostics", is_flag=True)
def run(file: str, seed: int, script_path: str | None, trace: bool,
        max_steps: int, unchecked: bool, json_diagnostics: bool) -> None:
    """Execute FILE to completion on the deterministic machine."""
    program = _parse(file, json_diagnostics)
    if unchecked:
        exec_program = prepare(program)
    else:
        exec_program = _check(program, file, json_diagnostics).exec_program
    if script_path is not None:
        services = ServiceConfig.from_script(
            _load(script_path).splitlines(), echo=sys.stdout)
    else:
        services = ServiceConfig.live()
    hook = None
    if trace:
        hook = lambda ev: click.echo(ev.render(), err=True)
    try:
        machine = boot(exec_program, seed, services, hook, not unchecked)
        outcome = machine.run_to_completion(max_steps)
    except (BootError, ScriptExhausted, MachineFault) as e:
        click.echo(f"error: {e}", err=True)
        raise SystemExit(1)
    if outcome.kind is OutcomeKind.STUCK:
        click.echo("deadlock: no process can make progress", err=True)
        for pid, cids in outcome.stuck.items():
            chans = ", ".join(f"#{c}" for c in cids)
            click.echo(f"  pid={pid} waiting on channel(s) {chans}",
                       err=True)
        raise SystemExit(3)
    if outcome.kind is OutcomeKind.STEP_LIMIT:
        click.echo(f"step limit reached after {outcome.steps} steps",
                   err=True)
        raise SystemExit(4)


@main.command("dump-ast")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json-diagnostics", is_flag=True)
def dump_ast(file: str, json_diagnostics: bool) -> None:
    """Parse FILE and print its canonical form."""
    program = _parse(file, json_diagnostics)
    click.echo(roundtrip_print(program), nl=False)


if __name__ == "__main__":
    main()
