"""The built-in Console service: a terminal endpoint that owns the output
end of a `Console` channel and dispatches on the reserved Console handles.

A scripted mode replaces terminal reads with a fixed list of input lines so
runs are reproducible; output is captured either way (and echoed to a
stream in live mode or when one is supplied).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TextIO

from .model import (
    TOPBOT, DeclKind, Get, HandleDef, ProtocolDecl, Put, StateVar, STRING,
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
    """A ConsoleGet arrived in scripted mode with no input lines left."""


@dataclass
class ServiceConfig:
    """Console behaviour for one run.

    In scripted mode, input lines come from `script` and the real terminal
    is never read.  Captured output accumulates in `outputs` regardless of
    mode; `echo` (when set) additionally receives each printed line.
    """
    scripted: bool = True
    script: list[str] = field(default_factory=list)
    echo: TextIO | None = None
    outputs: list[str] = field(default_factory=list)

    @classmethod
    def live(cls, echo: TextIO | None = None) -> "ServiceConfig":
        return cls(scripted=False, echo=echo if echo is not None else sys.stdout)

    @classmethod
    def from_script(cls, lines: list[str],
                    echo: TextIO | None = None) -> "ServiceConfig":
        return cls(scripted=True, script=list(lines), echo=echo)


def drain_output(config: ServiceConfig) -> list[str]:
    """Printed lines in emission order; safe to call repeatedly."""
    return list(config.outputs)


_IDLE = "idle"
_AWAIT_VAL = "await-val"
_CLOSING = "closing"


class ConsoleEndpoint:
    """State machine for one Console channel's service end.

    Driven by the machine with the messages that arrive on the service's
    incoming queue; replies are returned to be enqueued the other way.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.phase = _IDLE
        self.closed = False
        self._cursor = 0

    def handle(self, msg) -> object | None:
        from .runtime import CloseMsg, HandleMsg, MachineFault, StringV, ValMsg

        if self.phase == _AWAIT_VAL:
            if isinstance(msg, ValMsg) and isinstance(msg.value, StringV):
                self._emit(msg.value.value)
                self.phase = _IDLE
                return None
            raise MachineFault("IllegalCommand",
                               "console expected a string after ConsolePut")
        if self.phase == _CLOSING:
            if isinstance(msg, CloseMsg):
                self.closed = True
                return None
            raise MachineFault("IllegalCommand",
                               "console expected close after ConsoleClose")
        # idle
        if isinstance(msg, HandleMsg):
            if msg.handle == CONSOLE_PUT:
                self.phase = _AWAIT_VAL
                return None
            if msg.handle == CONSOLE_GET:
                return ValMsg(StringV(self._read_line()))
            if msg.handle == CONSOLE_CLOSE:
                self.phase = _CLOSING
                return None
            raise MachineFault("IllegalCommand",
                               f"console got unknown handle {msg.handle}")
        if isinstance(msg, CloseMsg):
            # Tolerated for unchecked programs that close without the handle.
            self.closed = True
            return None
        raise MachineFault("IllegalCommand",
                           f"console cannot dispatch on {type(msg).__name__}")

    def _emit(self, line: str) -> None:
        self.config.outputs.append(line)
        if self.config.echo is not None:
            print(line, file=self.config.echo, flush=True)

    def _read_line(self) -> str:
        if self.config.scripted:
            if self._cursor >= len(self.config.script):
                raise ScriptExhausted(
                    "console input script exhausted: a ConsoleGet had no "
                    "line to deliver")
            line = self.config.script[self._cursor]
            self._cursor += 1
            return line
        return input()
