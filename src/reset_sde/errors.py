"""The typed errors every module raises."""


class SpecError(ValueError):
    """A process description violates one of its invariants."""


class DomainError(ValueError):
    """An operation was evaluated outside its domain of validity."""


class NumericalError(RuntimeError):
    """A numerical routine left its guaranteed-accuracy regime."""
