"""Exception types shared across the library, and the input rules that raise them.

Every public entry point checks its arguments with the ``require_*`` rules
below before any work.  Each rule has one wording, "{name} must be ...,
got {value!r}": ``require_integer`` and ``require_real`` (TypeError),
``require_count`` (an integer >= 1), ``require_seed`` (an integer in
[0, 2**64)), ``require_positive`` (finite and positive), ``require_finite``
and ``require_choice`` (one of a fixed set).  The error a rule raises names the
argument in its ``argument`` attribute, so a caller such as the CLI can tell
which input was rejected without reading the message.
"""

from functools import partial
from numbers import Real

import numpy as np

from .rng import SEED_LIMIT


class McmPricerError(Exception):
    """Base class for all library errors."""


class NotTriangularError(McmPricerError, ValueError):
    """Volatility matrix has nonzero entries above the diagonal."""


class NotEllipticError(McmPricerError, ValueError):
    """Some diagonal volatility entry is below the ellipticity floor."""


class SingularVolError(McmPricerError, ValueError):
    """Volatility matrix could not be inverted on some interval."""


class SIndexZeroError(McmPricerError, ValueError):
    """Weight construction requested with s = 0, where 1/s is singular."""


class DimensionTooLargeError(McmPricerError, ValueError):
    """Brute-force involution enumeration requested beyond its bound."""


class DegenerateDenominatorError(McmPricerError, ArithmeticError):
    """Quotient denominator mean fell at or below its positivity floor."""


class NotDiagonalError(McmPricerError, ValueError):
    """Closed-form kernel requested for a non-diagonal volatility."""


class DenominatorMeanNearZeroError(McmPricerError, ArithmeticError):
    """Quotient statistics have |E(Y)| below the usable floor."""


class DimensionMismatchError(McmPricerError, ValueError):
    """Payoff dimensionality does not match the supplied asset vector."""


class RegressionSingularError(McmPricerError, ValueError):
    """Least-squares normal equations are rank deficient."""


class NonDeterministicResultError(McmPricerError, RuntimeError):
    """Identical configs produced different prices across parallelism degrees."""


class ConfigError(McmPricerError, ValueError):
    """Run configuration failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def _named(error: type[Exception], name: str, message: str) -> Exception:
    """``error(message)`` with ``argument`` set to ``name``, the argument it rejects."""
    exc = error(message)
    exc.argument = name
    return exc


def _require_type(kind: str, types, /, **values) -> None:
    """TypeError unless each value is an instance of ``types``; a bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, types):
            raise _named(TypeError, name, f"{name} must be {kind}, got {value!r}")


# TypeError unless each value is an int or a numpy integer; a bool is not one
require_integer = partial(_require_type, "an integer", (int, np.integer))
# TypeError unless each value is a real number (numbers.Real); a bool is not one
require_real = partial(_require_type, "a real number", Real)


def require_count(error: type[ValueError] = ValueError, /, **values) -> None:
    """``require_integer``, then ``error`` unless each value is at least 1."""
    require_integer(**values)
    for name, value in values.items():
        if value < 1:
            raise _named(error, name, f"{name} must be >= 1, got {value!r}")


def require_seed(seed) -> None:
    """``require_integer``, then ValueError unless 0 <= seed < ``rng.SEED_LIMIT`` (2**64)."""
    require_integer(seed=seed)
    if not 0 <= seed < SEED_LIMIT:
        raise _named(ValueError, "seed", f"seed must be in [0, 2**64), got {seed!r}")


def require_positive(**values) -> None:
    """ValueError unless each value, a scalar or every entry of an array, is finite and positive."""
    for name, value in values.items():
        if not np.all((0.0 < value) & (value < np.inf)):
            raise _named(ValueError, name, f"{name} must be positive and finite, got {value!r}")


def require_finite(**values) -> None:
    """ValueError unless each (scalar) value is finite."""
    for name, value in values.items():
        if not -np.inf < value < np.inf:
            raise _named(ValueError, name, f"{name} must be finite, got {value!r}")


def require_choice(choices: tuple, **values) -> None:
    """ValueError unless each value is one of ``choices``."""
    for name, value in values.items():
        if value not in choices:
            raise _named(ValueError, name, f"{name} must be one of {choices}, got {value!r}")
