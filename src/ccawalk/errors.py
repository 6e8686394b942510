"""Exception type and the checks shared across the package.

Every integer, real and choice parameter, and every array of cavity
indices or times, is validated here, so one rule holds everywhere: ``bool``
is not a number and ``str`` is not a number.
"""

from math import isfinite
from numbers import Integral, Real

import numpy as np

_BOOLS = frozenset((bool, np.bool_))


class ValidationError(ValueError):
    """Raised when an input violates a documented domain constraint.

    The CLI maps this to exit code 1.
    """


def _check_range(value, name: str, low, high) -> None:
    if low is not None and high is not None:
        if not low <= value <= high:
            raise ValidationError(f"{name} must lie in [{low}, {high}], got {value}")
    elif low is not None and not value >= low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    elif high is not None and not value <= high:
        raise ValidationError(f"{name} must be <= {high}, got {value}")


def checked_int(
    value, name: str, low: int | None = None, high: int | None = None
) -> int:
    """``value`` as an ``int`` in the closed range [low, high] (None: unbounded)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    _check_range(value, name, low, high)
    return value


def checked_real(
    value, name: str, low: float | None = None, high: float | None = None
) -> float:
    """``value`` as a finite ``float`` in the closed range [low, high]."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the double range
        value = float("inf")
    if not isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    _check_range(value, name, low, high)
    return value


def checked_products(what: str, products) -> None:
    """Refuse ``what`` if any of its ``(name, value)`` products is not finite.

    The products are formed by the caller in the order the pipeline forms
    them; the message names the first that overflowed.
    """
    for name, value in products:
        if not isfinite(value):
            raise ValidationError(f"{what} is out of range: {name} is {value}")


def checked_array(values, name: str, dtype=float, low=None, high=None) -> np.ndarray:
    """``values`` as a new non-empty 1-d ``dtype`` array, finite and in [low, high].

    One vectorised check in place of a scalar check per entry.  An ``int``
    array must hold integers, and a bool is never a number, not even in a list.
    """
    array = np.asarray(values)
    kinds, what = ("iu", "integers") if dtype is int else ("iuf", "real numbers")
    if array.ndim != 1 or array.size == 0 or array.dtype.kind not in kinds:
        raise ValidationError(f"{name} must be a non-empty 1-d sequence of {what}")
    if not isinstance(values, np.ndarray) and not _BOOLS.isdisjoint(map(type, values)):
        raise ValidationError(f"{name} must not contain booleans")
    array = array.astype(dtype)
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} must be finite")
    _check_range(array.min(), name, low, high)
    _check_range(array.max(), name, low, high)
    return array


def checked_choice(value, name: str, choices: tuple[str, ...]) -> str:
    """``value`` if it is one of the strings in ``choices``."""
    if not isinstance(value, str) or value not in choices:
        options = " or ".join(repr(choice) for choice in choices)
        raise ValidationError(f"{name} must be {options}, got {value!r}")
    return value
