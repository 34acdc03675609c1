"""Exception types shared across the package, and the integer, number and
array checks that raise them."""

import math
import numbers
from itertools import chain

import numpy as np


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
        # int first: the abstract class's check is several times slower, and
        # an MCMC run checks two counts at every step
        if type(value) is not int and not is_integer(value):
            raise error(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise error(f"{name} must be >= {minimum}, got {value}")


def check_real(error: type, name: str, value) -> float:
    """value as a float; raise error unless it is a real number (bool, a Real
    too, is not, nor is a string).  An integer beyond the float range reads
    as an infinity, which the caller's range check refuses."""
    # float and int first: the abstract class's check alone is several
    # times slower, and an MCMC run builds over a thousand kernels
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_integers(what: str, values) -> tuple:
    """values as a tuple of ints; raise ContractViolationError(f"{what}, got
    {values!r}") unless values is a sequence of integers (bool, an Integral
    too, is not, nor is a scalar or a string)."""
    try:
        values = tuple(values)
    except TypeError:
        raise ContractViolationError(f"{what}, got {values!r}") from None
    # ints first: the abstract class's check is several times slower, and an
    # MCMC run checks thousands of subsets
    if all(type(i) is int for i in values):
        return values
    if not all(is_integer(i) for i in values):
        raise ContractViolationError(f"{what}, got {values!r}")
    return tuple(int(i) for i in values)


def check_subsets(subsets) -> tuple:
    """subsets as a tuple of int tuples; raise ContractViolationError unless
    subsets is a sequence of integer sequences (see check_integers)."""
    # a tuple of int tuples as is: an MCMC chain checks every state it scores
    # and lists moves of, and the per-subset checks took twice as long
    if (
        type(subsets) is tuple
        and set(map(type, subsets)) <= {tuple}
        and set(map(type, chain.from_iterable(subsets))) <= {int}
    ):
        return subsets
    if not np.iterable(subsets):
        raise ContractViolationError(f"subsets must be index sequences, got {subsets!r}")
    return tuple(check_integers("subset indices must be integers", s) for s in subsets)


def check_indices(indices, count: int, size: int) -> tuple:
    """indices as a tuple; raise ContractViolationError unless they are
    count integers in [0, size)."""
    what = f"need {count} integer indices in [0, {size})"
    indices = check_integers(what, indices)
    if len(indices) != count or not all(0 <= i < size for i in indices):
        raise ContractViolationError(f"{what}, got {indices}")
    return indices


def check_array(name: str, value) -> np.ndarray:
    """value as a float array; raise ContractViolationError unless it is an
    array, or nested sequences, of numbers (strings and other objects are
    not)."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged nested sequences
        raise ContractViolationError(f"{name} must be a numeric array: {exc}") from exc
    if array.dtype.kind not in "biuf":
        raise ContractViolationError(f"{name} must be a numeric array, got dtype {array.dtype}")
    return array.astype(float, copy=False)
