"""Exception taxonomy shared across the package."""


class ProxiterError(Exception):
    """Base class for all package errors."""


class InvalidInputError(ProxiterError, ValueError):
    """An argument violates an operation's precondition."""


class EstimationFailureError(ProxiterError, RuntimeError):
    """A sampler produced too few samples, or a sample outside its set."""


class DomainViolationError(ProxiterError, RuntimeError):
    """A map produced a point outside its declared region."""

    def __init__(self, message: str, step: int = -1):
        super().__init__(message)
        self.step = step


class NumericFailureError(ProxiterError, ArithmeticError):
    """A map evaluation produced a NaN or overflowed."""


class NotAnInfimumSequenceError(ProxiterError, ValueError):
    """A candidate sequence fails the infimum-sequence contract."""


class RefutedError(ProxiterError, RuntimeError):
    """A certification that a solve rests on failed before it ran."""
