"""Exception types shared across the package, and the integer checks that
raise them."""

import numbers


class FgboError(Exception):
    """Base class for package errors."""


class ContractViolationError(FgboError):
    """An argument violated a documented precondition (wrong shape, index out
    of range, point outside the search box, ...)."""


class ConfigurationError(FgboError):
    """A configuration value is invalid or inconsistent (bad schedule
    parameters, unknown config keys, malformed decomposition spec, ...)."""


class NumericalFailureError(FgboError):
    """A linear-algebra step failed beyond recoverable jitter, or produced a
    value outside numerical tolerance (e.g. a clearly negative variance).

    ``jitter`` carries the last diagonal jitter attempted when the failure
    came from a factorization, else None.
    """

    def __init__(self, message, jitter=None):
        super().__init__(message)
        self.jitter = jitter


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; bool, an Integral too, is
    not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_counts(error: type, minimum: int, **values) -> None:
    """Raise error naming the first of values that is not an integer >=
    minimum."""
    for name, value in values.items():
        if not is_integer(value):
            raise error(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise error(f"{name} must be >= {minimum}, got {value}")


def check_indices(indices, count: int, size: int) -> tuple:
    """indices as a tuple; raise ContractViolationError unless they are
    count integers in [0, size)."""
    indices = tuple(indices)
    if len(indices) != count or not all(is_integer(i) and 0 <= i < size for i in indices):
        raise ContractViolationError(
            f"need {count} integer indices in [0, {size}), got {indices}"
        )
    return indices
