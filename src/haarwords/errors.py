"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: validation problems exit 2, resource
caps and convergence failures exit 3, and theorem violations exit 4, so CI can tell "the input was
bad" apart from "a guaranteed identity failed numerically".
"""


class ValidationError(ValueError):
    """Malformed or out-of-contract input."""


class WordParseError(ValidationError):
    """Unparseable word text; carries the offending offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class RankError(ValidationError):
    """Generator index beyond the configured free-group rank."""


class ShapeError(ValidationError):
    """Matrix dimensions do not match."""


class ResourceCapError(RuntimeError):
    """A configured enumeration or size cap would be exceeded."""


class UnsupportedSizeError(ResourceCapError):
    """Requested size is outside the supported exact-computation range."""


class TheoremViolationError(AssertionError):
    """A numerically checked identity or inequality that is guaranteed
    to hold has failed.  Always a bug signal, never tolerated silently."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class StructureViolationError(TheoremViolationError):
    """The exact expectation breaks its guaranteed rational form: g_L
    leaves a remainder, or a fixed-n residual that should vanish did not."""


class ConvergenceError(RuntimeError):
    """Iterative estimator failed to settle; carries the best estimate."""

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
