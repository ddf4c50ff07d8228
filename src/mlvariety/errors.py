"""Shared exception types."""

from __future__ import annotations


class PreconditionError(ValueError):
    """An operation was called outside its documented contract."""


class EmptyVarietyError(PreconditionError):
    """The operation requires a nonempty variety."""


class InputFormatError(ValueError):
    """A value read from an input file is malformed."""


class ZeroBiasError(ArithmeticError):
    """Bias is zero, so the analytic rank is infinite.

    This can only happen for a nonzero form whose support is a single
    factor: a form depending on two or more factors vanishes at the
    all-zero outer assignment, which forces positive bias.
    """


class ConstructionError(RuntimeError):
    """An internal guarantee of the subvariety construction failed.

    The averaging and filling arguments behind the construction make these
    situations impossible for correct code, so they are surfaced loudly
    instead of being papered over.
    """


class ApproxMismatchError(ConstructionError):
    """The approximating variety strictly exceeded its target.

    Carries the exact number of extra points, read off the counts that
    found the mismatch, and the lower bound that number must satisfy
    whenever a mismatch occurs.  Unreachable for correct code; the tests
    reach it by fault injection, running the external approximation with
    no functionals.
    """

    def __init__(self, message, extra_count, extra_floor):
        super().__init__(message)
        self.extra_count = extra_count
        self.extra_floor = extra_floor
