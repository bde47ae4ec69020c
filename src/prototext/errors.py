"""Exception types shared across the package.

Everything raised on purpose derives from :class:`PrototextError` so the
CLI can map failures to exit codes: configuration and usage problems,
data problems, and everything else.
"""

from __future__ import annotations

from functools import cache
from typing import get_args, get_type_hints


class PrototextError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PrototextError):
    """Bad command-line invocation (unknown flag, missing argument)."""


class InvalidConfig(PrototextError):
    """A configuration value violates its documented constraints."""


def check_type(name: str, kind, value) -> None:
    """The one type rule of a config field: InvalidConfig naming ``name`` unless ``value``
    is exactly of type ``kind``, save that an int does for a float and None does for an
    optional field."""
    if type(value) not in (get_args(kind) or ((float, int) if kind is float else (kind,))):
        kind_name = getattr(kind, "__name__", kind)
        raise InvalidConfig(f"config field {name} must be {kind_name}, not {type(value).__name__}")


def check_int(value, name: str, low: int) -> None:
    """The one bound rule of a count or size, an API argument or a config field alike:
    InvalidConfig naming ``name`` and ``low`` unless ``value`` is an int (a bool is not)
    of at least ``low``."""
    if type(value) is not int or value < low:
        raise InvalidConfig(f"{name} must be an int >= {low}, got {value!r}")


# a config class's field types, resolved once per class
_field_types = cache(get_type_hints)


def check_fields(config, **low: int) -> None:
    """:func:`check_type` on every field of the config dataclass instance ``config``, then
    :func:`check_int` on each field that ``low`` names, with its lower bound."""
    for name, kind in _field_types(type(config)).items():
        check_type(name, kind, getattr(config, name))
    for name, bound in low.items():
        check_int(getattr(config, name), f"config field {name}", bound)


class DataError(PrototextError):
    """Base class for malformed or inconsistent input data."""


class InvalidTable(DataError):
    """A table is empty or contains a blank attribute or value."""


class ParseError(DataError):
    """A record in an input file could not be parsed.

    Carries the path and 1-based line number when the failure is tied to
    a line; :func:`~prototext.tabledata.read_jsonl` sets them.
    """

    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        super().__init__(message)
        self.message, self.line_no, self.path = message, line_no, path

    def __str__(self) -> str:
        where = "" if self.path is None else f"{self.path}:"
        if self.line_no is not None:
            where += f"line {self.line_no}: "
        return where + self.message


class DuplicateId(ParseError):
    """Two records in the same file, or two sentences of a corpus, share an id."""

    def __init__(self, dup_id: int, key: str = "id"):
        self.dup_id, self.key = dup_id, key
        super().__init__(f"duplicate {key} {dup_id}")

    def __reduce__(self):
        return type(self), (self.dup_id, self.key), self.__dict__


class UnknownDocument(DataError):
    """A sentence id is not present in the index or corpus."""


class InsufficientNegatives(DataError):
    """An example has fewer candidates than the configured negative count."""


class InputTooLong(DataError):
    """A token sequence exceeds the model's maximum context length."""


class InvalidInput(DataError):
    """Operation inputs are structurally invalid (e.g. length mismatch)."""


class AllTies(DataError):
    """Sign test is undefined: every paired comparison is a tie."""


class StageError(PrototextError):
    """A pipeline stage failed; names the stage and keeps the cause.

    The cause is kept as ``cause`` as well as chained: an error raised in a worker
    process reaches the caller pickled, with ``__cause__`` replaced by the remote
    traceback.
    """

    def __init__(self, stage: str, cause: BaseException):
        self.stage, self.cause = stage, cause
        super().__init__(f"stage '{stage}' failed: {cause}")

    def __reduce__(self):
        return type(self), (self.stage, self.cause)


# What decoding malformed content raises. OSError is absent on purpose:
# a file that cannot be read is not a data error.
MALFORMED = (ValueError, KeyError, TypeError, AttributeError, OverflowError, InvalidConfig)
