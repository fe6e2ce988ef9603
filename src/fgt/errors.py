"""Typed errors shared across the package."""


class FgtError(Exception):
    pass


class NotPrimeError(FgtError):
    pass


class UnsupportedExtensionError(FgtError):
    pass


class DegreeMismatchError(FgtError):
    pass


class InvalidElementError(FgtError):
    pass


class NotAutomorphismError(FgtError):
    pass


class ActionInconsistentError(FgtError):
    pass


class UnknownConstructorError(FgtError):
    pass


class NotNormalError(FgtError):
    pass


class NotSolvableError(FgtError):
    pass


class NotApplicableError(FgtError):
    pass


class UnknownClaimError(FgtError):
    pass


class ConsistencyError(FgtError):
    """An internal invariant failed: the computation itself is broken, not the input."""


class BudgetExceededError(FgtError):
    """Raised when a construction or enumeration passes its configured budget.

    ``partial`` carries whatever count was reached so the caller can report
    how far the computation got.
    """

    def __init__(self, message: str, partial: int | None = None):
        super().__init__(message)
        self.partial = partial
