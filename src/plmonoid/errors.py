"""Exception types shared across the package.

The ``plm`` command maps each :class:`PlmError` to its exit code in one
handler.  A bad scalar argument (a dimension below 1; an index, count,
exponent or tolerance out of range; a value that is not an exact ``int``) is
an :class:`InvalidArgumentError`, and operands of different dimensions a
:class:`DimensionMismatchError`; both are also ``ValueError``s, so code
that catches ``ValueError`` still catches them.  A bad value inside a matrix,
column map or decomposition raises a plain ``ValueError``; the file readers
turn those into :class:`MatrixParseError` with the file's name and line.
"""


class PlmError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidArgumentError(PlmError, ValueError):
    """A scalar argument has the wrong type or lies out of range."""


class NotPlmError(PlmError):
    """A dense 0/1 matrix does not have exactly one 1 in every column."""

    def __init__(self, message: str, column: int | None = None, count: int | None = None):
        super().__init__(message)
        self.column = column
        self.count = count


class DimensionMismatchError(PlmError, ValueError):
    """Operands have different dimensions."""


class NotCplmError(PlmError):
    """The operation needs a matrix whose first row is zero past column 1."""


class ZeroColumnError(PlmError):
    """A column with no positive entry where one is required."""

    def __init__(self, column: int):
        super().__init__(f"column {column} has no positive entry")
        self.column = column


class NotLeftStochasticError(PlmError):
    """Matrix fails left-stochastic validation (negative entry or bad column sum)."""

    def __init__(self, message: str, column: int | None = None, total=None):
        super().__init__(message)
        self.column = column
        self.total = total


class WeightSumNotOneError(PlmError):
    """Convex weights do not sum to exactly one."""


class RootFindingError(PlmError):
    """The eigenvalue cross-check failed or could not be carried out.

    Either the exact certificate failed (the trace-recursion characteristic
    polynomial is not the product of the square-free factors read off the
    cycle lengths, each to its multiplicity) or the numeric roots strayed
    from the allowed spectrum.  Exact verdicts (periodicity, characteristic
    polynomial) are unaffected.
    """

    def __init__(self, message: str, deviation: float | None = None):
        super().__init__(message)
        self.deviation = deviation


class MatrixParseError(PlmError):
    """A matrix file could not be parsed."""

    def __init__(self, path: str, line: int | None, message: str):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
