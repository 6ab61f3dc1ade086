"""The typed errors every module raises, and the number conversion of
config values that raises the first of them."""


class SpecError(ValueError):
    """A process description violates one of its invariants."""


class DomainError(ValueError):
    """An operation was evaluated outside its domain of validity."""


class NumericalError(RuntimeError):
    """A numerical routine left its guaranteed-accuracy regime."""


def as_number(value, field, kind=float):
    """``kind(value)`` for a config value; a SpecError naming ``field``
    when the value is not a number of that kind."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise SpecError(f"{field} must be {what}; got {value!r}") from None
