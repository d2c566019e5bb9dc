"""A message-passing process language: parser, linear type checker, and
deterministic runtime."""

from .checker import TypedProgram, check_program
from .diagnostics import CheckFailure, ParseFailure
from .elaborate import prepare
from .lexer import LexError, tokenize
from .parser import parse_program, parse_source
from .printer import roundtrip_print
from .runtime import Machine, Outcome, OutcomeKind, boot
from .services import ServiceConfig

__version__ = "0.1.0"

__all__ = [
    "CheckFailure", "LexError", "Machine", "Outcome", "OutcomeKind",
    "ParseFailure", "ServiceConfig", "TypedProgram", "boot",
    "check_program", "parse_program", "parse_source", "prepare",
    "roundtrip_print", "tokenize",
    "__version__",
]
