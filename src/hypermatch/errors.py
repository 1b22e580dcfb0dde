"""Exception hierarchy shared by all modules.

Every error raised by this package derives from ``HypermatchError`` so
callers (and the CLI) can report failures uniformly.  The subclasses map
onto the distinct failure kinds of the public operations.  ``is_int`` is
the integer test the argument checks share.
"""

from __future__ import annotations

import numpy as np


class HypermatchError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(HypermatchError, ValueError):
    """A precondition on an operation's arguments was violated."""


class ParseError(HypermatchError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        self.path = path
        self.line = line
        where = f"{path}:{line}: " if path else (f"line {line}: " if line else "")
        super().__init__(where + message)


class ConfigError(HypermatchError):
    """Missing or inconsistent configuration (e.g. an unknown alpha entry)."""


class GenerationError(HypermatchError):
    """Random instance generation exhausted its retry budget."""


class ResourceLimitError(HypermatchError):
    """An operation would exceed its configured work or size limit."""


class InfeasibleError(HypermatchError):
    """The instance admits no fractional perfect matching."""


class SamplingError(HypermatchError):
    """A sampling operation could not produce a valid object."""


class InvariantError(HypermatchError):
    """A mathematical invariant of a computed result failed to hold."""


def is_int(value) -> bool:
    """True for an int or a numpy integer; a bool is not an integer argument."""
    return type(value) is not bool and isinstance(value, (int, np.integer))
