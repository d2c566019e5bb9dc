"""Diagnostic records and their text / JSON-lines serializations."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .model import Pos

# Kind names are part of the tool's stable output format.
LEX_ERROR = "LexError"
PARSE_ERROR = "ParseError"
POLARITY_VIOLATION = "PolarityViolation"
ILLEGAL_COMMAND = "IllegalCommand"
LINEARITY_DROP = "LinearityDrop"
LINEARITY_REUSE = "LinearityReuse"
PLUG_CYCLE = "PlugCycle"
PLUG_POLARITY_MISMATCH = "PlugPolarityMismatch"
HANDLE_UNKNOWN = "HandleUnknown"
HANDLE_DUPLICATE = "HandleDuplicate"
RACE_ARM_NOT_RECEIVING = "RaceArmNotReceiving"
HALT_NOT_LAST = "HaltNotLast"
SEQ_MISMATCH = "SeqMismatch"
UNIFICATION_FAILURE = "UnificationFailure"
ARITY_MISMATCH = "ArityMismatch"


@dataclass
class Diagnostic:
    kind: str
    pos: Pos
    message: str
    channel: str | None = None
    chan_type: str | None = None

    def text(self, filename: str = "<input>") -> str:
        return (f"{filename}:{self.pos.line}:{self.pos.col}: "
                f"{self.kind}: {self.message}")

    def json_line(self, filename: str = "<input>") -> str:
        return json.dumps({
            "kind": self.kind,
            "file": filename,
            "line": self.pos.line,
            "col": self.pos.col,
            "message": self.message,
            "channel": self.channel,
            "type": self.chan_type,
        })


def sort_key(d: Diagnostic):
    return (d.pos.line, d.pos.col, d.kind, d.message)


class ParseFailure(Exception):
    """Raised by the parser after recovery; carries every collected error."""

    def __init__(self, errors: list[Diagnostic]):
        super().__init__(f"{len(errors)} parse error(s)")
        self.errors = errors


class CheckFailure(Exception):
    """Raised by the checker; carries every collected type error."""

    def __init__(self, errors: list[Diagnostic]):
        super().__init__(f"{len(errors)} type error(s)")
        self.errors = errors
