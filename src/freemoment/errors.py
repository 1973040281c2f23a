"""Exception types shared across the package."""


class FreeMomentError(Exception):
    """Base class for all package errors."""


class InvalidInputError(FreeMomentError):
    """Input violates a documented precondition."""


class RegimeError(FreeMomentError):
    """Input is outside the regime a solver can handle (e.g. multi-cut potential)."""


class ConvergenceError(FreeMomentError):
    """An iterative solver failed to converge within its iteration budget."""
