"""Data-driven choice of the tuning parameter alpha.

The criterion is a leave-one-out Cramer-von Mises distance: refit with
each order statistic removed, evaluate the held-out point's fitted CDF
against its plotting position (i - 0.5)/n, and average the squared
discrepancies.

The n refits are exact: held-out point i is row i of
estimator._solve_rows, as a bootstrap replicate is, solved to rounding
by damped Newton from the full-sample fit with the closed-form gradient
and Hessian of the divergence terms. This is the exact form of the
one-step leave-one-out of Giordano et al. (2019) and Rad & Maleki
(2020), iterated to convergence. A point whose row is unsolved is refit
on its own, by fit from that held-out sample's moment start.

On clean data the curve is nearly flat in alpha (it varies by a few
1e-4 at most for n = 250), so its argmin can land anywhere on the
grid. Contamination makes alpha = 0 clearly worse (many times the
curve minimum) and moves the minimum to alpha > 0.
"""

import math
import csv
from dataclasses import dataclass

import numpy as np

from .dataio import open_sink
from .errors import DomainError, DpdError, TuningError
from .estimator import _sample_values, _solve_rows, fit

__all__ = ["TuningResult", "cvm_distance", "select_alpha", "COARSE_GRID"]

# Coarse search grid {0, 0.05, ..., 1.0}.
COARSE_GRID = tuple(k / 20.0 for k in range(21))

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TuningResult:
    family: object
    alpha_grid: tuple
    cvmd_curve: dict
    alpha_star: float
    cvmd_star: float
    fit_star: object
    loo_fallbacks: int  # held-out points refit one at a time by fit, over the curve

    def curve_to_csv(self, path_or_fp):
        with open_sink(path_or_fp) as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "cvmd"])
            for alpha in sorted(self.cvmd_curve):
                writer.writerow([f"{alpha:.10g}", f"{self.cvmd_curve[alpha]:.12g}"])


def _sorted_values(sample, param_count):
    vals = _sample_values(sample)
    if vals.size < param_count + 2:
        raise DomainError(
            f"tuning needs at least {param_count + 2} observations "
            f"(leave-one-out fits must stay feasible), got {vals.size}"
        )
    # stable sort: with tied observations the index assignment among the
    # equal values is arbitrary but value-identical, so the distance is
    # unchanged
    return np.sort(vals, kind="stable")


def _golden_refine(f, grid, best):
    """Golden-section search for a minimum of f between the neighbours
    of `best` in the sorted `grid`, down to width 1e-3. Returns nothing:
    f records the values it computes."""
    pos = grid.index(best)
    a, b = grid[max(pos - 1, 0)], grid[min(pos + 1, len(grid) - 1)]
    if b <= a:
        return
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-3:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)


def _loo_points(family, alpha, xs, start):
    """Every leave-one-out estimate of the sorted sample xs, by Newton
    from start: row i weights every point but xs[i] by 1/(n - 1).
    Returns (theta (n, p), solved (n,))."""
    n = xs.size
    return _solve_rows(
        family, alpha, xs, n, lambda rows: (np.arange(n) != rows[:, None]) / (n - 1), start
    )[:2]


def cvm_distance(family, alpha, sample, fallbacks=None):
    """Leave-one-out CVM distance at one alpha.

    All n leave-one-out estimates are solved together by Newton steps
    from the full-sample fit, to rounding. A held-out point whose
    Newton solve fails its guard (see estimator._solve_rows) is refit
    by fit from the held-out sample's own moment start; its index is
    appended to `fallbacks` when a list is given. Raises a tuning
    error naming the (1-based) order-statistic index if such a refit
    fails.
    """
    xs = _sorted_values(sample, family.param_count)
    n = xs.size
    full = fit(family, alpha, xs)
    theta, solved = _loo_points(family, alpha, xs, full.theta_hat.values)
    for i in np.flatnonzero(~solved):
        held_out = np.delete(xs, i)
        try:
            loo = fit(family, alpha, held_out)
        except DpdError as exc:
            raise TuningError(
                f"leave-one-out fit {i + 1} of {n} failed at alpha={alpha:g}: {exc}"
            ) from exc
        if not loo.converged:
            raise TuningError(
                f"leave-one-out fit {i + 1} of {n} did not converge at alpha={alpha:g}"
            )
        theta[i] = loo.theta_hat.values
        if fallbacks is not None:
            fallbacks.append(int(i))
    resid = (np.arange(n) + 0.5) / n - family.cdf(tuple(theta.T), xs)
    return float(resid @ resid) / n


def select_alpha(family, sample, refine=True):
    """Minimize the CVM distance over alpha in [0, 1].

    Coarse grid first, then golden-section refinement (to width 1e-3)
    between the grid minimum's neighbors; `refine=False` stops after
    the grid. Grid ties break toward smaller alpha. Deterministic:
    no randomness anywhere in the sweep.
    """
    curve = {}
    fallbacks = []

    def evaluate(alpha):
        if alpha not in curve:
            curve[alpha] = cvm_distance(family, alpha, sample, fallbacks)
        return curve[alpha]

    for alpha in COARSE_GRID:
        evaluate(alpha)
    if refine:
        _golden_refine(evaluate, COARSE_GRID, min(curve, key=lambda al: (curve[al], al)))

    alpha_star = min(curve, key=lambda al: (curve[al], al))
    fit_star = fit(family, alpha_star, sample)
    return TuningResult(
        family=family,
        alpha_grid=COARSE_GRID,
        cvmd_curve=dict(curve),
        alpha_star=float(alpha_star),
        cvmd_star=float(curve[alpha_star]),
        fit_star=fit_star,
        loo_fallbacks=len(fallbacks),
    )
