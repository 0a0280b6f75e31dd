"""Exception types shared across the package."""


class DiskprojError(Exception):
    """Base class for all package-specific errors."""


class InvalidRangeError(DiskprojError, ValueError):
    """An interval or parameter range is empty or out of bounds."""


class ConfigError(DiskprojError, ValueError):
    """A configuration file or catalog reference is malformed."""


class BudgetExceededError(DiskprojError, RuntimeError):
    """A requested discretization exceeds the cell budget."""


class TruncationInfeasibleError(DiskprojError, ValueError):
    """A series evaluation cannot reach the requested tolerance."""


class SeparationError(DiskprojError, ValueError):
    """Points or squares do not satisfy a required separation condition."""


class QuadratureMismatchError(DiskprojError, ValueError):
    """Objects bound to different quadratures were combined, or a
    cross-check between two quadrature routes failed."""


class TailVanishedError(DiskprojError, ValueError):
    """A tail value needed as a denominator is zero."""


class NoConvergenceError(DiskprojError, RuntimeError):
    """An iterative solver stopped before reaching its tolerance."""
