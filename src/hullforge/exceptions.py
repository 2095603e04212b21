"""Exception types shared across the package."""


class HullforgeError(Exception):
    """Base class for all package errors."""


class ZeroMatrixError(HullforgeError):
    """A generator matrix with no nonzero entry defines no code."""


class BudgetExceededError(HullforgeError):
    """Codeword enumeration would exceed the fixed cap, code.DEFAULT_ENUM_CAP."""


class InvalidWeightsError(HullforgeError):
    """Counts whose MacWilliams transform is no weight distribution."""


class AllCoordinatesError(HullforgeError):
    """Puncturing/shortening on every coordinate leaves no code."""


class RankDeficientError(HullforgeError):
    """Selected columns do not span the full message space."""


class DimensionTooSmallError(HullforgeError):
    """Simplex padding requires dimension at least 2."""


class UnknownFixtureError(HullforgeError):
    """No fixture with the requested name."""


class OutOfRangeError(HullforgeError):
    """Requested table cell or family member does not exist."""


class UnsupportedError(HullforgeError):
    """Parameters outside the supported range of the operation."""


class WrongHullDimensionError(HullforgeError):
    """The operation requires a code with one-dimensional Hermitian hull."""


class ParseError(HullforgeError):
    """Malformed matrix file; carries the offending position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
            message += loc
        super().__init__(message)
