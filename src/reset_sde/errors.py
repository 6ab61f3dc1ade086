"""The typed errors every module raises, and the rules that refuse a
value with them: a finite positive (or nonnegative) number, a count, and
a config value that is not a JSON number.  Each rule raises its caller's
class: ``DomainError`` for the arguments of a closed form, ``SpecError``
for a spec or run field.  None takes a bool or a string for a number."""

import math
import numbers

import numpy as np


class SpecError(ValueError):
    """A process description violates one of its invariants."""


class DomainError(ValueError):
    """An operation was evaluated outside its domain of validity."""


class NumericalError(RuntimeError):
    """A numerical routine left its guaranteed-accuracy regime."""


# Real scalars, Python or numpy; bool, an int subclass, is excluded apart
_REALS = (float, int, np.floating, np.integer)


def check_positive(value, what, error=SpecError, zero=False):
    """``value``, refused with ``error`` unless it is finite and above 0
    (at or above 0 when ``zero``): a real scalar, or an array-like of
    integers or floats every one of which is."""
    if isinstance(value, _REALS) and not isinstance(value, bool):
        ok = (0 <= value if zero else 0 < value) and value < math.inf  # one float test
    else:
        array = np.asarray(value)
        ok = array.dtype.kind in "iuf" and np.all(
            ((0 <= array) if zero else (0 < array)) & (array < math.inf))
    if not ok:
        raise error(f"{what} must be {'nonnegative' if zero else 'positive'} and finite")
    return value


def check_count(value, what, least=None, error=SpecError) -> int:
    """``value`` as an int, refused with ``error`` unless it is an integer,
    Python's or numpy's but not a bool, of at least ``least`` (of any
    value for None)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and not value >= least):
        bound = "an integer" if least is None else f"at least {least}, an integer"
        raise error(f"{what} must be {bound}; got {value!r}")
    return int(value)


def as_number(value, field, kind=float):
    """A config value as ``kind``, refused with a SpecError naming ``field``
    unless it is a JSON number: an integer for int (see ``check_count``),
    an integer or a float for float."""
    if kind is int:
        return check_count(value, field)
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an integer past a double
            pass
    raise SpecError(f"{field} must be a number; got {value!r}")
