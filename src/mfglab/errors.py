"""Exception types shared across the solver modules, and the integer check that raises them."""

import operator


class MFGLabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MFGLabError):
    """Non-finite, empty, or otherwise malformed numerical input."""


class ConfigurationError(MFGLabError):
    """Bad run configuration (unknown keys, invalid values, grid sanity failures)."""


class UnsupportedModelError(MFGLabError):
    """The requested operation needs a model form this solver does not handle."""


class TransportError(MFGLabError):
    """A particle left the computational box during transport.

    Carries the time and particle index so the user can enlarge R_x / R_v.
    """

    def __init__(self, message, t=None, particle=None):
        super().__init__(message)
        self.t = t
        self.particle = particle


class NumericalError(MFGLabError):
    """An iterative solve failed to reach tolerance; carries the best iterate."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


def as_index(n, what, error):
    """n as an int, or `error` for a count or seed that operator.index refuses (41.5, "41")."""
    try:
        return operator.index(n)
    except TypeError:
        raise error(f"{what} must be an integer, got {n!r}") from None
