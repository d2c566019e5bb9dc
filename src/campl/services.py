"""The built-in Console service: its coprotocol declaration and a run's
console configuration.  The machine's `ConsoleEndpoint` holds the output
end of each `Console` channel and dispatches on the reserved handles.

A script of input lines replaces terminal reads so runs are reproducible;
with `script is None`, input is live.  Output is captured either way (and
echoed to a stream in live mode or when one is supplied).
"""

from __future__ import annotations

import sys
from typing import TextIO

from .model import (
    TOPBOT, DeclKind, Field, Get, HandleDef, ProtocolDecl, Put, StateVar,
    STRING, record,
)

CONSOLE = "Console"
CONSOLE_PUT = "ConsolePut"
CONSOLE_GET = "ConsoleGet"
CONSOLE_CLOSE = "ConsoleClose"

# Console is a built-in coprotocol: the program holds the input end and
# activates handles with hput there.  After ConsolePut the program sends a
# line (Get at the input end), after ConsoleGet it receives one, and
# ConsoleClose ends the session.
CONSOLE_DECL = ProtocolDecl(
    name=CONSOLE,
    kind=DeclKind.COPROTOCOL,
    seq_params=(),
    state_var="S",
    handles=(
        HandleDef(CONSOLE_PUT, Get(STRING, StateVar("S"))),
        HandleDef(CONSOLE_GET, Put(STRING, StateVar("S"))),
        HandleDef(CONSOLE_CLOSE, TOPBOT),
    ),
)

BUILTIN_DECLS = {CONSOLE: CONSOLE_DECL}


class ScriptExhausted(Exception):
    """A ConsoleGet arrived with no input line left: the script ran out,
    or live input ended."""


@record
class ServiceConfig:
    """Console behaviour for one run.

    Input lines come from `script` and the real terminal is never read;
    live mode, `script is None`, reads the terminal.  Captured output
    accumulates in `outputs` regardless of mode; `echo` (when set)
    additionally receives each printed line.
    """
    script: list[str] | None = Field(factory=list)
    echo: TextIO | None = None
    outputs: list[str] = Field(factory=list)

    @classmethod
    def live(cls, echo: TextIO | None = None) -> "ServiceConfig":
        return cls(script=None, echo=echo if echo is not None else sys.stdout)

    @classmethod
    def from_script(cls, lines: list[str],
                    echo: TextIO | None = None) -> "ServiceConfig":
        return cls(script=list(lines), echo=echo)
