"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so the split matters: anything wrong
with user-supplied data is an InputError, a refused oversized enumeration
is CapExceeded, and InternalInvariantError marks states the algorithms
guarantee cannot happen (reaching one is a bug, not bad input).
"""

from __future__ import annotations


class Error(Exception):
    """Base class for all package errors."""


class InputError(Error):
    """Invalid user-supplied data: files, tables, solutions, parameters."""


class FormatError(InputError):
    """Malformed document or distance entry."""


class CapExceeded(Error):
    """An exhaustive enumeration was refused because it exceeds the cap;
    `method` names the route refused."""

    def __init__(self, message: str, method: str | None = None):
        super().__init__(message)
        self.method = method


class InternalInvariantError(Error):
    """A guaranteed invariant failed; indicates a bug in this package."""
