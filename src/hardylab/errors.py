"""Exception types shared across the package."""


class HardyLabError(Exception):
    """Base class for package specific failures."""


class CoefficientUnavailable(HardyLabError, LookupError):
    """A requested Taylor coefficient could not be produced."""


class PoleError(HardyLabError, ZeroDivisionError):
    """An evaluation point collided with a pole of the integrand."""


class DomainModelError(HardyLabError, ValueError):
    """A domain does not fit the model: its gauge describes no bounded
    domain, or its frontier reaches a pole that a spike tag declares."""


class NonConvergenceError(HardyLabError, RuntimeError):
    """A doubling refinement hit its node budget without stabilizing."""
