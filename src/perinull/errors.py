"""Exception types shared across the package, and its input contract: every
scalar argument (scales, prior odds, sample sizes, seeds, bounds) passes
:func:`check_range`, so an out-of-range, nan or infinite value raises
:class:`InvalidInputError` naming the argument instead of coming back as a
number. The command line refuses non-finite float flags with exit code 2.
"""

import math


class PeriNullError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PeriNullError, ValueError):
    """An argument violates a documented precondition."""


def check_range(name, value, lo=0, hi=math.inf, *, closed=False):
    """Return ``value`` if ``lo < value < hi`` (``lo <= value`` when ``closed``),
    else raise :class:`InvalidInputError` naming ``name``. The default range
    means positive and finite, ``lo=-math.inf`` finite; nan fails every range."""
    if lo < value < hi or (closed and value == lo):
        return value
    raise InvalidInputError(
        f"{name} must lie in {'[' if closed else '('}{lo}, {hi}), got {value}")


class DegeneratePriorError(InvalidInputError):
    """A prior has no usable mass on the requested region."""


class UnsupportedOrderError(PeriNullError, ValueError):
    """A tensor or derivative order outside the supported range was requested."""


class QuadratureConvergenceError(PeriNullError, RuntimeError):
    """A trapezoid rule's error bound exceeds the requested tolerance.

    Every marginal is closed form or a fixed-step trapezoid rule; this is
    raised when a rule's bound (h-vs-2h gap plus cut-off tails) exceeds
    ``QuadratureConfig.rel_tol``. Carries the estimate and its error bound
    so callers can decide whether to use the value anyway.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SimulationError(PeriNullError, RuntimeError):
    """Too many cells of a simulation run failed."""
