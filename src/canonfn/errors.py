"""Exception types shared across the package."""


class CanonFnError(Exception):
    """Base class for all package-specific errors."""


class AmalgamationFailure(CanonFnError):
    """A scheduled one-point-extension demand admits no completion in the age."""


class ArityLimitExceeded(CanonFnError):
    """A tuple arity exceeds the configured guardrail."""


class TypeMismatch(CanonFnError):
    """A partial map's domain and range tuples have different quantifier-free types."""


class DomainGap(CanonFnError):
    """A partial function oracle was probed outside its domain."""


class BudgetExhausted(CanonFnError):
    """A probe budget ran out before the requested precision was reached."""


class PresentationError(CanonFnError):
    """A group presentation has an unsupported shape or inconsistent data."""


class FormatError(CanonFnError):
    """A text artifact failed to parse or validate."""

    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class UsageError(CanonFnError):
    """A command line could not be parsed."""

    def __init__(self, message, token=None, position=None, expected=()):
        super().__init__(message)
        self.token = token
        self.position = position
        self.expected = tuple(expected)
