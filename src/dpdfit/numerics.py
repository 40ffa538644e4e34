"""Shared numerical kernels: derivative-free minimization, bracketed
root finding, CDF inversion.

Everything here is a pure function of its inputs; no module state.
"""

import numpy as np
from scipy import optimize

from .errors import BracketingError, DomainError, InversionError

__all__ = ["minimize", "find_root_bracketed", "invert_cdf"]

_OBJECTIVE_TOLERANCE = 1e-10
_MAX_EVALUATIONS = 10000


def _nelder_mead(objective, x0, xtol, budget, initial_step=None):
    """One simplex descent. Returns (x, fx, converged, evals_used).

    Standard reflect/expand/contract/shrink coefficients; non-finite
    objective values are treated as +inf so the step is rejected.
    """
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        v = float(objective(x))
        return v if np.isfinite(v) else np.inf

    k = x0.size
    sim = np.empty((k + 1, k))
    sim[0] = x0
    for i in range(k):
        if initial_step is not None:
            step = initial_step
        else:
            step = 0.05 * abs(x0[i]) if abs(x0[i]) > 1e-12 else 0.00025
        sim[i + 1] = x0
        sim[i + 1, i] += step
    fsim = np.array([call(v) for v in sim])

    converged = False
    while evals < budget:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= xtol
            and np.max(np.abs(fsim[1:] - fsim[0])) <= _OBJECTIVE_TOLERANCE
        ):
            converged = True
            break

        centroid = sim[:-1].mean(axis=0)
        xr = centroid + (centroid - sim[-1])
        fr = call(xr)
        if fr < fsim[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = call(xe)
            if fe < fr:
                sim[-1], fsim[-1] = xe, fe
            else:
                sim[-1], fsim[-1] = xr, fr
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            if fr < fsim[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (sim[-1] - centroid)
            fc = call(xc)
            if fc < min(fr, fsim[-1]):
                sim[-1], fsim[-1] = xc, fc
            else:
                for i in range(1, k + 1):
                    sim[i] = sim[0] + 0.5 * (sim[i] - sim[0])
                    fsim[i] = call(sim[i])

    best = int(np.argmin(fsim))
    return sim[best], fsim[best], converged, evals


def minimize(objective, start, fast=False, initial_step=None):
    """Derivative-free minimization in one or two variables.

    Runs a simplex search from `start` to parameter tolerance 1e-8,
    then 2 further searches from randomly perturbed copies of the best
    point so far (fixed internal seed, so results are deterministic);
    `fast=True` runs the first search alone, to tolerance 1e-6. Every
    search also needs the objective values within 1e-10, and all share
    a budget of 10000 evaluations. Returns (argmin, value, converged);
    `converged` reports whether the run that produced the returned
    point met both tolerances within the budget. `initial_step`
    overrides the default simplex edge length; warm-started callers
    pass something small.
    """
    xtol, restarts = (1e-6, 0) if fast else (1e-8, 2)
    x0 = np.atleast_1d(np.asarray(start, dtype=float))
    k = x0.size
    if k not in (1, 2):
        raise DomainError("minimize handles one or two variables only")
    f0 = float(objective(x0))
    if not np.isfinite(f0):
        raise DomainError("objective is non-finite at the start point")

    rng = np.random.default_rng(181621)
    remaining = _MAX_EVALUATIONS
    best_x, best_f, best_conv = x0, f0, False
    origin = x0
    for attempt in range(restarts + 1):
        if remaining <= 0:
            break
        if attempt > 0:
            origin = best_x + rng.normal(0.0, 0.1, size=k) * (1.0 + np.abs(best_x))
            if not np.isfinite(float(objective(origin))):
                continue
        x, fx, conv, used = _nelder_mead(
            objective, origin, xtol, remaining, initial_step=initial_step
        )
        remaining -= used
        if fx < best_f or (fx == best_f and conv and not best_conv):
            best_x, best_f, best_conv = x, fx, conv
    return best_x, best_f, best_conv


def find_root_bracketed(f, lo, hi):
    """Brent root finding on [lo, hi]; endpoints must straddle a root."""
    flo, fhi = f(lo), f(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)) or flo * fhi > 0:
        raise BracketingError(f"no sign change on [{lo:g}, {hi:g}]")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    return optimize.brentq(f, lo, hi, xtol=1e-12, rtol=4 * np.finfo(float).eps)


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
