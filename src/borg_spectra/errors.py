"""Exception types shared across the package."""


class BorgSpectraError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpecError(BorgSpectraError, ValueError):
    """An operator description violates its structural invariants."""


class InvalidParameterError(BorgSpectraError, ValueError):
    """A numeric or structural argument is outside its documented range."""


class HypothesisViolationError(BorgSpectraError):
    """A theorem-level hypothesis does not hold for the requested check."""
