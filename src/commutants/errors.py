"""Exception hierarchy shared by every module in the package.

Mathematically negative answers (no solution, not equivalent, nothing
found) are values, not exceptions; the classes here mark contract
violations: bad shapes, mixed fields, malformed input.

Every integer argument (an order q, a power k, a size n, an index i) is
refused through one guard, `_integer`: an int that is not a bool, in
range, or the caller's exception with the caller's message.
"""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(AlgebraError):
    """Operands belong to different scalar fields."""


class ShapeMismatch(AlgebraError):
    """Operand dimensions are incompatible."""


class NotSquare(ShapeMismatch):
    """A square matrix was required."""


class AmbientMismatch(AlgebraError):
    """Subspaces live in different ambient spaces."""


class ZeroInverse(AlgebraError, ZeroDivisionError):
    """Inversion of a zero scalar or singular matrix."""


class BothZero(AlgebraError):
    """gcd of two zero polynomials is undefined."""


class ZeroPolynomial(AlgebraError):
    """The zero polynomial is not allowed here."""


class NotMonic(AlgebraError):
    """A monic polynomial was required."""


class DegreeZero(AlgebraError):
    """A polynomial of positive degree was required."""


class NotCoprime(AlgebraError):
    """CRT moduli at positions i, j share a nonconstant factor."""

    def __init__(self, i: int, j: int):
        super().__init__(f"moduli {i} and {j} are not coprime")
        self.i = i
        self.j = j


class NotInClass(AlgebraError):
    """A polynomial uses an exponent outside its congruence class."""

    def __init__(self, exponent: int):
        super().__init__(f"exponent {exponent} not allowed in this class")
        self.exponent = exponent


class BadExponent(AlgebraError):
    """Exponent outside the supported range."""


class IndexOutOfRange(AlgebraError):
    """Structured-matrix index outside 1..n."""


class BadDimensions(AlgebraError):
    """Size constraint violated (e.g. q must divide n)."""


class PairInvariantViolated(AlgebraError):
    """The pair does not satisfy AB = omega*BA."""


class NotNilpotent(AlgebraError):
    """A nilpotent matrix was required."""


class InvalidSpec(AlgebraError):
    """Malformed generator specification."""


class ParseError(AlgebraError):
    """Malformed textual input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class FieldError(ParseError):
    """A scalar token does not parse in the declared field."""


class RaggedRows(ParseError):
    """Matrix rows of unequal length."""


class VerificationError(ArithmeticError):
    """An exact check of a computed result failed, so the result is
    withheld.  This marks a defect in the package, not bad input, so it
    is deliberately not an AlgebraError."""


def _integer(x, low: int | None, high: int | None, error: type[Exception], message: str) -> None:
    """error(message) unless x is an int, not a bool (True is no order,
    power or size), with low <= x <= high; a bound of None is skipped."""
    if not isinstance(x, int) or isinstance(x, bool) or (low is not None and x < low) or (high is not None and x > high):
        raise error(message)
