"""CDF inversion by bracket expansion and bisection.

A pure function of its inputs; no module state.
"""

import numpy as np

from .errors import DomainError, InversionError

__all__ = ["invert_cdf"]


def invert_cdf(cdf, p):
    """Solve cdf(x) = p for x > 0 by bracket expansion then bisection.

    p may be one probability, giving a float, or an array, solved in
    lockstep: cdf is called on an array of points, and a probability's
    bracket stops moving once it is solved, so each gets the float a
    solve of it alone would give.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise DomainError("invert_cdf requires p in (0, 1)")
    lo, hi = np.ones_like(p), np.ones_like(p)
    out = np.empty_like(p)
    with np.errstate(all="ignore"):
        grow = cdf(hi) < p
        while np.any(grow):
            lo, hi = np.where(grow, hi, lo), np.where(grow, 2.0 * hi, hi)
            if np.any(hi > 1e308):
                raise InversionError("bracket expansion exceeded 1e308")
            grow = grow & (cdf(hi) < p)
        shrink = cdf(lo) > p
        while np.any(shrink):
            lo, hi = np.where(shrink, 0.5 * lo, lo), np.where(shrink, lo, hi)
            if np.any(lo < 1e-308):
                raise InversionError("bracket expansion underflowed")
            shrink = shrink & (cdf(lo) > p)
        live = np.ones_like(p, dtype=bool)
        for _ in range(500):
            mid = 0.5 * (lo + hi)
            c = cdf(mid)
            hit = live & (np.abs(c - p) <= 1e-10)
            out = np.where(hit, mid, out)
            live = live & ~hit
            if not np.any(live):
                return float(out) if out.ndim == 0 else out
            below = c < p
            lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)
            if np.any(live & (hi - lo <= np.finfo(float).eps * mid)):
                break
    raise InversionError(f"bisection stalled at p={np.extract(live, p)[0]:g}")
