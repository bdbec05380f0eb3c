"""Exception hierarchy for the mdsgit package.

Every error raised deliberately by this package derives from MdsgitError,
so callers can catch one type at the boundary.  The CLI maps subclasses to
distinct process exit codes.
"""

from __future__ import annotations


class MdsgitError(Exception):
    """Base class for all errors raised by mdsgit."""


class InvalidFanError(MdsgitError):
    """The input data does not describe a valid (simplicial, etc.) fan."""


class RankDeficientWeightsError(MdsgitError):
    """The weight matrix does not have full row rank, so no chamber is full-dimensional."""


class DegenerateLinearizationError(MdsgitError):
    """A character lies on a wall or outside every chamber, where a chamber was required."""


class EmptySemistableLocusError(MdsgitError):
    """The chosen character admits no semistable points at all."""


class InvariantViolationError(MdsgitError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class DimensionMismatchError(MdsgitError):
    """Vectors or matrices of incompatible dimensions were combined."""


class NonIntegerEntryError(MdsgitError):
    """A vector entry or index that must be an integer is not an int (or is a bool)."""


class InputTooLargeError(MdsgitError):
    """The input would take more work than is accepted; refused before any is done."""
