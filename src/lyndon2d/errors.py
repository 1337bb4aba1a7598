"""Exception hierarchy shared by all lyndon2d modules."""


class LyndonError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(LyndonError):
    """Malformed input: empty string, ragged matrix, bad parameter value."""


class NotPrimitive(LyndonError):
    """The string is an integer power of a shorter string."""


class NotLyndon(LyndonError):
    """The string is not a Lyndon word."""


class NotSufficientlyPeriodic(LyndonError):
    """A row's smallest period exceeds the allowed fraction of its width.

    ``row`` is the row's index in its matrix and ``pattern`` the matrix's
    index in a pattern dictionary, where known.
    """

    def __init__(
        self,
        message: str,
        *,
        period: int,
        row: int | None = None,
        pattern: int | None = None,
    ):
        super().__init__(message)
        self.period = period
        self.row = row
        self.pattern = pattern


class CapExceeded(LyndonError):
    """The joint period LCM exceeds the enumeration cap."""

    def __init__(self, message: str, *, lcm: int):
        super().__init__(message)
        self.lcm = lcm


class InvalidQuery(LyndonError):
    """Query operands are not comparable (dimensions, fraction, registry)."""
