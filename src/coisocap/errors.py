"""Exception types shared across the package, and the helper that keeps
their messages short."""


class CoisocapError(Exception):
    """Base class for all package-specific errors."""


class OutOfRangeError(CoisocapError, ValueError):
    """An argument violates a stated precondition."""


class CapExceededError(CoisocapError, ValueError):
    """A naive-oracle call exceeds the size cap ``kfun.ORACLE_CAP``."""


class ExprParseError(CoisocapError, ValueError):
    """A product-object expression does not match the grammar."""


class IntervalConflictError(CoisocapError, RuntimeError):
    """Two certified bounds contradict each other (lower > upper).

    This is always an internal error: it means the inequality registry
    was combined incorrectly, never that the inputs were bad.
    """


def clip(text: str, width: int = 40) -> str:
    """``text`` cut to ``width`` characters plus an ellipsis, for echoing a
    token in an error message."""
    return text if len(text) <= width else text[:width] + "\u2026"
