"""Exception types shared across the package.

Every error raised by frobjet derives from :class:`FrobjetError`, so callers
can catch the whole family at once.  Most errors double as ``ValueError`` or
``ArithmeticError`` to stay friendly to generic handling code.
"""


class FrobjetError(Exception):
    """Base class for all frobjet errors."""


class NotEisensteinCompatible(FrobjetError, ValueError):
    """Tower parameters do not define a valid ramified extension."""


class PrecisionTooLow(FrobjetError, ValueError):
    """Requested absolute precision is below the supported minimum."""


class PrecisionExhausted(FrobjetError, ArithmeticError):
    """An operation would leave no certified digits."""


class UnreducedCoefficients(FrobjetError, ValueError):
    """Tower coefficients are not an f x e matrix of residues mod p^prec."""


class PrecisionBudgetExceeded(FrobjetError, ArithmeticError):
    """A computation cannot certify the requested output precision."""


class NotAUnit(FrobjetError, ValueError):
    """Element with nonzero valuation used where a unit is required."""


class FamilyMismatch(FrobjetError, ValueError):
    """Operands belong to different towers, Frobenius families or primes."""


class MissingClass(FrobjetError, KeyError):
    """A required coefficient entry is absent from the supplied table."""


class OrderOverflow(FrobjetError, ValueError):
    """A word produced by prolongation would exceed the configured order."""


class NotTopologicallyNilpotent(FrobjetError, ValueError):
    """Point evaluation requires an argument of positive valuation."""


class BadReduction(FrobjetError, ValueError):
    """Curve discriminant is not a unit."""


class SupersingularInput(FrobjetError, ValueError):
    """Operation defined only for ordinary reduction."""


class IntegralityViolation(FrobjetError, ArithmeticError):
    """A quantity that must be integral has negative valuation."""


class DistinctWordsRequired(FrobjetError, ValueError):
    """The two index words must differ."""


class UnknownForm(FrobjetError, KeyError):
    """Form identifier not present in the expansion table."""


class UnknownRelation(FrobjetError, KeyError):
    """Relation identifier not present in the catalog."""


class UnknownCurve(FrobjetError, KeyError):
    """Curve label not present in the catalog."""


class ConfigError(FrobjetError, ValueError):
    """A configuration file is malformed or incomplete."""


class BetaTooLarge(FrobjetError, ValueError):
    """Deformation parameter outside the convergence region."""


class SeriesTooShort(FrobjetError, ValueError):
    """Supplied series does not reach the required degree."""


class NotOdd(FrobjetError, ValueError):
    """A series that must be odd has a term of even total degree."""


class LogDivergence(FrobjetError, ArithmeticError):
    """Logarithm argument outside the domain of convergence."""


class ZeroSeries(FrobjetError, ValueError):
    """Zero series has no zero-counting bound."""


class DivisionByZero(FrobjetError, ZeroDivisionError):
    """A denominator vanishes at the working precision."""


class CertificateFailure(FrobjetError, ArithmeticError):
    """An internal consistency check failed: a bug, never bad input."""
