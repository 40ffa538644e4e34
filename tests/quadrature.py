"""Adaptive half-line quadrature: the test suite's independent oracle.

The library takes every DPD integral in closed form. The tests integrate
the same quantities numerically from the density and score alone, a
route that shares nothing with the closed-form derivation.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from dpdfit.errors import DomainError, DpdError


class QuadratureError(DpdError):
    """Numerical integration did not reach the requested accuracy.

    Carries the best estimate and its error bound so callers that can
    tolerate a loose integral may still inspect it.
    """

    def __init__(self, message, value=None, err_estimate=None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for adaptive quadrature over [0, inf).

    The half line is mapped onto (0, 1) by x = t/(1-t) before panels are
    laid down, so integrands must decay fast enough to be integrable.
    """

    abs_tolerance: float = 1e-10
    rel_tolerance: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tolerance <= 0 or self.rel_tolerance <= 0:
            raise DomainError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


def integrate_halfline(f, spec=None):
    """Integrate f over [0, inf); returns (value, err_estimate).

    Raises QuadratureError if the error estimate exceeds
    10 * max(abs_tolerance, rel_tolerance * |value|) or the adaptive
    scheme runs out of subdivisions; the exception carries the best
    estimate found.
    """
    if spec is None:
        spec = QuadratureSpec()

    def transformed(t):
        # x = t/(1-t) maps (0,1) onto (0,inf); dx = dt/(1-t)^2
        u = 1.0 - t
        return f(t / u) / (u * u)

    out = integrate.quad(
        transformed,
        0.0,
        1.0,
        epsabs=spec.abs_tolerance,
        epsrel=spec.rel_tolerance,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    value, err = out[0], out[1]
    if len(out) > 3 or not (np.isfinite(value) and np.isfinite(err)):
        raise QuadratureError(
            "quadrature did not converge within max_subdivisions",
            value=value,
            err_estimate=err,
        )
    if err > 10.0 * max(spec.abs_tolerance, spec.rel_tolerance * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} too large for value {value:.6e}",
            value=value,
            err_estimate=err,
        )
    return value, err
