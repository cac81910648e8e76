"""Exception taxonomy shared across the package.

Every failure raised on purpose by this package derives from
:class:`GeominimaxError`, so callers (in particular the command line
driver) can map failures to exit codes without matching on message
strings.
"""

__all__ = [
    "GeominimaxError",
    "ParameterError",
    "ContractError",
    "DomainError",
    "NumericalError",
    "StepTooLongError",
    "NoUniqueGeodesicError",
    "ConfigError",
]


class GeominimaxError(Exception):
    """Base class for all errors raised by geominimax."""


class ParameterError(GeominimaxError, ValueError):
    """A scalar or structural argument is outside its documented range."""


class ContractError(GeominimaxError, ValueError):
    """Caller broke an API contract, e.g. mixed tangents with different base points."""


class DomainError(GeominimaxError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class NumericalError(GeominimaxError, ArithmeticError):
    """An iterative numerical routine failed to converge or produced non-finite values."""


class StepTooLongError(NumericalError):
    """A tangent vector exceeds the exponential-map guard; solvers treat this as divergence."""


class NoUniqueGeodesicError(DomainError):
    """The two points are (numerically) cut-locus related, so the connecting geodesic is not unique."""


class ConfigError(ParameterError):
    """An experiment configuration file is malformed or has values out of range."""
