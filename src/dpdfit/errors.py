"""Exception types shared across the package.

Everything raised on purpose derives from DpdError so callers (and the
command line driver) can separate expected failures from genuine bugs.
"""

__all__ = [
    "DpdError",
    "DomainError",
    "DpdValidityError",
    "InversionError",
    "FitError",
    "SingularInformationError",
    "TuningError",
    "SelectionError",
    "DataError",
]


class DpdError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DomainError(DpdError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DpdValidityError(DomainError):
    """Shape parameter too small for the requested DPD tuning parameter.

    The gamma and Weibull per-term integrals only exist when the shape
    satisfies a > alpha/(1+alpha).
    """


class InversionError(DpdError):
    """CDF inversion failed to bracket or converge on the target probability."""


class FitError(DpdError):
    """Estimation failed (degenerate sample, optimizer breakdown, bad start)."""


class SingularInformationError(DpdError):
    """The information matrix J is numerically singular or not positive definite."""


class TuningError(DpdError):
    """A held-out row is unsolved at an alpha, or no alpha could be scored."""


class SelectionError(DpdError):
    """No candidate family could be fitted at any tuning parameter."""


class DataError(DpdError, ValueError):
    """Input data violates the expected schema or contains unusable values."""
