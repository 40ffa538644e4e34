"""CDF inversion by bracket expansion and bisection.

A pure function of its inputs; no module state.
"""

import numpy as np

from .errors import DomainError, InversionError

__all__ = ["invert_cdf"]


def invert_cdf(cdf, p):
    """Solve cdf(x) = p for x > 0 by bracket expansion then bisection."""
    if not 0.0 < p < 1.0:
        raise DomainError("invert_cdf requires p in (0, 1)")
    lo = hi = 1.0
    while cdf(hi) < p:
        lo = hi
        hi *= 2.0
        if hi > 1e308:
            raise InversionError("bracket expansion exceeded 1e308")
    while cdf(lo) > p:
        hi = lo
        lo /= 2.0
        if lo < 1e-308:
            raise InversionError("bracket expansion underflowed")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        c = cdf(mid)
        if abs(c - p) <= 1e-10:
            return mid
        if c < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= np.finfo(float).eps * mid:
            break
    raise InversionError(f"bisection stalled at p={p:g}")
