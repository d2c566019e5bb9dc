"""Command-line front door: check, run, and dump programs.

Exit codes are stable: 0 success / run finished, 1 diagnostics or a
runtime fault, 2 usage or I/O failure, 3 deadlock (stuck), 4 step limit.
Program output goes to stdout; diagnostics, traces, and reports go to
stderr.

The arguments are read by hand: one group of three commands, each taking
FILE and a few options.  A usage error prints the command's usage line, a
hint to run `--help` and an `Error:` line on stderr, and exits 2.  What
the CLI writes itself loses its ANSI escape sequences when the stream is
not a terminal, decided once per stream by each command; the Console's
output is written unchanged.
"""

from __future__ import annotations

import errno
import gc
import os
import re
import stat
import sys

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

_ANSI = re.compile(r"\033\[[;?0-9]*[a-zA-Z]")


def _writer(stream):
    """A function that writes text to `stream` and flushes it, dropping
    ANSI escape sequences unless `stream` is a terminal."""
    try:
        keep = stream.isatty()
    except Exception:
        keep = False
    write, flush = stream.write, stream.flush

    def put(text: str) -> None:
        if not keep and "\033" in text:
            text = _ANSI.sub("", text)
        write(text)
        flush()
    return put


def _emit(errors: list[Diagnostic], filename: str, as_json: bool,
          err) -> None:
    for d in errors:
        err((d.json_line(filename) if as_json else d.text(filename)) + "\n")


def _load(path: str, err) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        err(f"cannot read {path}: {e}\n")
        raise SystemExit(2)


def _parse(path: str, as_json: bool, err) -> SourceProgram:
    try:
        return parse_source(_load(path, err))
    except ParseFailure as e:
        _emit(e.errors, path, as_json, err)
        raise SystemExit(1)


def _check(program: SourceProgram, path: str, as_json: bool,
           err) -> TypedProgram:
    try:
        return check_program(program)
    except CheckFailure as e:
        _emit(e.errors, path, as_json, err)
        raise SystemExit(1)


def _lint_run_position(program: SourceProgram, err) -> None:
    procs = [d for d in program.decls if isinstance(d, ProcDef)]
    if procs and any(d.name == "run" for d in procs) \
            and procs[-1].name != "run":
        err("note: style prefers 'run' as the final process definition\n")


def check(file: str, json_diagnostics: bool = False) -> None:
    """Type-check FILE; silent and exit 0 when it is well-typed."""
    err = _writer(sys.stderr)
    program = _parse(file, json_diagnostics, err)
    _lint_run_position(program, err)
    _check(program, file, json_diagnostics, err)


def run(file: str, seed: int = 0, stdin: str | None = None,
        trace: bool = False, max_steps: int = DEFAULT_MAX_STEPS,
        unchecked: bool = False, json_diagnostics: bool = False) -> None:
    """Execute FILE to completion on the deterministic machine."""
    err = _writer(sys.stderr)
    program = _parse(file, json_diagnostics, err)
    if unchecked:
        exec_program = prepare(program)
    else:
        exec_program = _check(program, file, json_diagnostics,
                              err).exec_program
    if stdin is not None:
        services = ServiceConfig.from_script(
            _load(stdin, err).splitlines(), echo=sys.stdout)
    else:
        services = ServiceConfig.live()
    hook = None
    if trace:
        hook = lambda ev: err(ev.render() + "\n")
    try:
        machine = boot(exec_program, seed, services, hook, not unchecked)
        outcome = machine.run_to_completion(max_steps)
    except (BootError, ScriptExhausted, MachineFault) as e:
        err(f"error: {e}\n")
        raise SystemExit(1)
    if outcome.kind is OutcomeKind.STUCK:
        err("deadlock: no process can make progress\n")
        for pid, cids in outcome.stuck.items():
            chans = ", ".join(f"#{c}" for c in cids)
            err(f"  pid={pid} waiting on channel(s) {chans}\n")
        raise SystemExit(3)
    if outcome.kind is OutcomeKind.STEP_LIMIT:
        err(f"step limit reached after {outcome.steps} steps\n")
        raise SystemExit(4)


def dump_ast(file: str, json_diagnostics: bool = False) -> None:
    """Parse FILE and print its canonical form."""
    program = _parse(file, json_diagnostics, _writer(sys.stderr))
    _writer(sys.stdout)(roundtrip_print(program))


# ---------------------------------------------------------------------------
# reading the arguments

class _Usage(Exception):
    """A usage error.  Without `usage`, it is reported without the usage
    line and the hint: an option's missing or unwanted value."""

    def __init__(self, message: str, usage: bool = True):
        super().__init__(message)
        self.usage = usage


def _count(low: int):
    """The reader of an `INTEGER RANGE` option whose values start at
    `low`."""
    def read(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise _Usage(f"{text!r} is not a valid integer range.") from None
        if n < low:
            raise _Usage(f"{n} is not in the range x>={low}.")
        return n
    return read


def _existing_file(path: str) -> str:
    """The reader of FILE and `--stdin`: a readable file, not a
    directory."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        problem = "does not exist"
    else:
        problem = ("is a directory" if stat.S_ISDIR(mode) else
                   None if os.access(path, os.R_OK) else "is not readable")
    if problem:
        shown = path.encode("utf-8", "surrogateescape").decode("utf-8",
                                                               "replace")
        raise _Usage(f"File {shown!r} {problem}.")
    return path


def _valid(name: str, read, text: str):
    try:
        return read(text)
    except _Usage as e:
        raise _Usage(f"Invalid value for {name!r}: {e}") from None


def _did_you_mean(name: str, candidates) -> str:
    from difflib import get_close_matches
    close = sorted(get_close_matches(name, candidates))
    if len(close) == 1:
        return f" Did you mean {close[0]!r}?"
    if close:
        return f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return ""


def _read(args: list[str], options: dict, interspersed: bool):
    """The options of `options` that `args` gives, each with its last
    value (True for a flag) in order of first appearance, and the
    positional arguments.  A flag maps to None in `options`.  Options end
    at `--`, and at the first positional argument unless `interspersed`."""
    given: dict = {}
    positional: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            break
        if arg[:1] != "-" or len(arg) == 1:
            if not interspersed:
                return given, args[i - 1:]
            positional.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in options:
            if arg[:2] != "--":
                raise _Usage(f"No such option {arg[:2]!r}.")
            raise _Usage(f"No such option {name!r}."
                         + _did_you_mean(name, options))
        if options[name] is None:
            if eq:
                raise _Usage(f"Option {name!r} does not take a value.",
                             usage=False)
            value = True
        elif not eq:
            if i == len(args):
                raise _Usage(f"Option {name!r} requires an argument.",
                             usage=False)
            value = args[i]
            i += 1
        given[name] = value
    return given, positional + args[i:]


_GROUP_OPTIONS = {"--help": None}
_GROUP_HELP = """\
Usage: {prog} [OPTIONS] COMMAND [ARGS]...

  Check and execute .campl programs.

Options:
  --help  Show this message and exit.

Commands:
  check     Type-check FILE; silent and exit 0 when it is well-typed.
  dump-ast  Parse FILE and print its canonical form.
  run       Execute FILE to completion on the deterministic machine.
"""

# Each command's function, options and help text.
_COMMANDS = {
    "check": (check, {"--json-diagnostics": None, "--help": None}, """\
Usage: {prog} check [OPTIONS] FILE

  Type-check FILE; silent and exit 0 when it is well-typed.

Options:
  --json-diagnostics  Emit machine-readable JSON-lines diagnostics.
  --help              Show this message and exit.
"""),
    "run": (run, {"--seed": _count(0), "--stdin": _existing_file,
                  "--trace": None, "--max-steps": _count(1),
                  "--unchecked": None, "--json-diagnostics": None,
                  "--help": None}, f"""\
Usage: {{prog}} run [OPTIONS] FILE

  Execute FILE to completion on the deterministic machine.

Options:
  --seed INTEGER RANGE       RNG seed; races are its only users.  [default: 0;
                             x>=0]
  --stdin FILE               Console input script, one line per message.
  --trace                    Stream the trace to stderr.
  --max-steps INTEGER RANGE  [default: {DEFAULT_MAX_STEPS}; x>=1]
  --unchecked                Skip the type checker (deadlocks become
                             reachable).
  --json-diagnostics
  --help                     Show this message and exit.
"""),
    "dump-ast": (dump_ast, {"--json-diagnostics": None, "--help": None}, """\
Usage: {prog} dump-ast [OPTIONS] FILE

  Parse FILE and print its canonical form.

Options:
  --json-diagnostics
  --help              Show this message and exit.
"""),
}


def _group_options(args: list[str], prog: str) -> list[str]:
    """The arguments from the command's name on; `--help` shows the
    group's help."""
    given, rest = _read(args, _GROUP_OPTIONS, False)
    if given:
        _writer(sys.stdout)(_GROUP_HELP.format(prog=prog))
        raise SystemExit(0)
    return rest


def _dispatch(args: list[str], prog: str) -> None:
    """Read `args` and run the command they name, with the cyclic
    collector paused."""
    path, usage = prog, "[OPTIONS] COMMAND [ARGS]..."
    try:
        if not args:
            _writer(sys.stderr)(_GROUP_HELP.format(prog=prog))
            raise SystemExit(2)
        rest = _group_options(args, prog)
        if not rest:
            raise _Usage("Missing command.")
        name = rest[0]
        if name not in _COMMANDS:
            if name and not name[0].isalnum():
                # Read as the group's options: `campl -- --help` helps.
                _group_options(rest, prog)
            raise _Usage(f"No such command {name!r}."
                         + _did_you_mean(name, _COMMANDS))
        command, options, help_text = _COMMANDS[name]
        path, usage = f"{prog} {name}", "[OPTIONS] FILE"
        given, positional = _read(rest[1:], options, True)
        if "--help" in given:
            _writer(sys.stdout)(help_text.format(prog=prog))
            raise SystemExit(0)
        values = {}
        for opt, text in given.items():
            read = options[opt]
            values[opt[2:].replace("-", "_")] = \
                text if read is None else _valid(opt, read, text)
        if not positional:
            raise _Usage("Missing argument 'FILE'.")
        file = _valid("FILE", _existing_file, positional[0])
        if extra := positional[1:]:
            s = "s" if len(extra) > 1 else ""
            raise _Usage(f"Got unexpected extra argument{s} "
                         f"({' '.join(extra)})")
    except _Usage as e:
        shown = f"Usage: {path} {usage}\nTry '{path} --help' for help.\n\n"
        _writer(sys.stderr)(f"{shown if e.usage else ''}Error: {e}\n")
        raise SystemExit(2) from None
    # A command's tokens, trees and machine survive until it returns, and
    # neither the front end nor a run makes reference cycles, so a
    # collection meanwhile would only rescan live objects.
    enabled = gc.isenabled()
    gc.disable()
    try:
        command(file, **values)
    finally:
        if enabled:
            gc.enable()


def _program_name() -> str:
    """How campl was started: the script's file name, or `python -m`
    and the module's name."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(sys.argv[0])
    name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    if name != "__main__":
        package = f"{package}.{name}"
    return f"python -m {package.lstrip('.')}"


class _Pacified:
    """A stream whose flush ignores a reader that went away, so the
    interpreter's last flush reports nothing."""

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except OSError as e:
            if e.errno != errno.EPIPE:
                raise


def main(args: list[str] | None = None, prog_name: str | None = None):
    """Run `campl` on `args` (default: the command line) and exit with its
    code.  Unexpected exceptions propagate.  An interrupt prints a blank
    line and `Aborted!` on stderr and exits 1, and so does the end of
    input; a reader that goes away exits 1 silently."""
    try:
        _dispatch(sys.argv[1:] if args is None else list(args),
                  _program_name() if prog_name is None else prog_name)
    except (EOFError, KeyboardInterrupt):
        sys.stderr.write("\nAborted!\n")
        sys.stderr.flush()
        raise SystemExit(1) from None
    except OSError as e:
        if e.errno != errno.EPIPE:
            raise
        sys.stdout, sys.stderr = _Pacified(sys.stdout), _Pacified(sys.stderr)
        raise SystemExit(1) from None
    raise SystemExit(0)


main.main = main    # `main.main(args=..., prog_name=...)` as callers make it


if __name__ == "__main__":
    main()
