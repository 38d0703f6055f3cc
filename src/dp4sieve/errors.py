"""Exception types shared across the package.

Every error that a public operation can raise is a subclass of Dp4Error,
so callers (and the CLI exit-code mapping) can catch one base type.
"""


class Dp4Error(Exception):
    """Base class for all package errors."""


# field construction / arithmetic
class NonPrime(Dp4Error):
    pass


class UnsupportedSize(Dp4Error):
    pass


class DivisionByZero(Dp4Error):
    pass


# divisor inventories and counting tables
class TooLarge(Dp4Error):
    pass


# lattice / cone geometry
class NotNef(Dp4Error):
    pass


class LemmaViolation(Dp4Error):
    """A proven fact fails: no admissible contraction with non-negative
    slack, or a series coefficient that its scaling leaves fractional.
    Indicates a bug."""


# surface configurations and section counting
class CoincidentFirstCoords(Dp4Error):
    pass


class CoincidentSecondCoords(Dp4Error):
    pass


class OnBidegreeCurve(Dp4Error):
    pass


class FieldTooSmall(Dp4Error):
    pass


class BudgetExceeded(Dp4Error):
    pass


class DegreeMismatch(Dp4Error):
    pass


# harness
class InvalidConfig(Dp4Error):
    pass


class CorruptCache(Dp4Error):
    pass


class VersionMismatch(Dp4Error):
    pass


class IoError(Dp4Error):
    pass

