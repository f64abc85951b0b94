"""Exception types shared across the library."""


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
