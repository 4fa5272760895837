"""Exception hierarchy shared across the package."""

from __future__ import annotations

from .numeric import echo

__all__ = [
    "TreexactError",
    "MalformedInput",
    "InvalidMatrix",
    "InvalidTree",
    "UnknownVertex",
    "PolicyMismatch",
    "TooLarge",
    "BadSequence",
    "BadRange",
]


class TreexactError(Exception):
    """Base class for every error raised by this package."""


class MalformedInput(TreexactError):
    """Input text is not syntactically valid for the declared format."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        loc = ""
        if row is not None:
            loc = f" at row {row}" + (f", column {col}" if col is not None else "")
        super().__init__(message + loc)
        self.row = row
        self.col = col


class InvalidMatrix(TreexactError):
    """Matrix entries violate a dissimilarity invariant (symmetry, diagonal, sign)."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        loc = f" at ({row},{col})" if col is not None else ""
        super().__init__(message + loc)
        self.row = row
        self.col = col


class InvalidTree(TreexactError):
    """Edge set does not describe a positive-weighted tree on exactly {1..n}."""


class UnknownVertex(TreexactError):
    """A vertex label lies outside {1..n}."""

    def __init__(self, label: int, n: int):
        super().__init__(f"vertex label {echo(label)} outside 1..{echo(n)}")
        self.label = label
        self.n = n


class PolicyMismatch(TreexactError):
    """Two values built under different numeric policies met in one computation."""


class TooLarge(TreexactError):
    """Input size exceeds a limit: the oracle's enumeration cap, the bits of
    an exact matrix's grid, or what the command line's `gen` and `weights`
    print (their vertex count, the digits of a path weight, the characters
    of the matrix)."""


class BadSequence(TreexactError):
    """A vertex-label sequence has the wrong length or an out-of-range entry."""


class BadRange(TreexactError):
    """Generator parameters are out of range (size, weight bounds, or empty grid)."""
