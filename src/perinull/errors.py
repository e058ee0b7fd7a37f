"""Exception types shared across the package."""


class PeriNullError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PeriNullError, ValueError):
    """An argument violates a documented precondition."""


class DegeneratePriorError(InvalidInputError):
    """A prior has no usable mass on the requested region."""


class UnsupportedOrderError(PeriNullError, ValueError):
    """A tensor or derivative order outside the supported range was requested."""


class QuadratureConvergenceError(PeriNullError, RuntimeError):
    """A quadrature rule failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to use the value anyway.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SimulationError(PeriNullError, RuntimeError):
    """Too many cells of a simulation run failed."""
