"""Data-driven choice of the tuning parameter alpha.

The criterion is a leave-one-out Cramer-von Mises distance: refit with
each order statistic removed, evaluate the held-out point's fitted CDF
against its plotting position (i - 0.5)/n, and average the squared
discrepancies.

The n refits are exact: each held-out point is a row of
estimator._solve_rows, as a bootstrap replicate is, solved to rounding
by damped Newton from the full-sample fit with the closed-form gradient
and Hessian of the divergence terms. This is the exact form of the
one-step leave-one-out of Giordano et al. (2019) and Rad & Maleki
(2020), iterated to convergence.

alpha_search is the one alpha search: select_alpha scores each alpha's
full-sample fit by this distance, selection.select_model by RIC. Alpha
is a row axis of the Newton kernel, so the whole grid is one batched
full-sample fit (estimator.fit_alphas) and one leave-one-out solve of
all 21 n rows; each golden-section step is a batch of one alpha.

Both searches leave out of the curve an alpha they cannot score; for
CVM, one whose full-sample fit fails or whose held-out rows are not all
solved. The grid alphas missing from a curve record what was left out.

On clean data the curve is nearly flat in alpha (it varies by a few
1e-4 at most for n = 250), so its argmin can land anywhere on the
grid. Contamination makes alpha = 0 clearly worse (many times the
curve minimum) and moves the minimum to alpha > 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataio import write_rows
from .errors import DomainError, DpdError, TuningError
from .estimator import _sample_values, _solve_rows, fit_alphas

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

    def curve_to_csv(self, path_or_fp):
        write_rows(path_or_fp, ["alpha", "cvmd"], (
            [f"{alpha:.10g}", f"{self.cvmd_curve[alpha]:.12g}"] for alpha in sorted(self.cvmd_curve)
        ))


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


def _loo_points(family, alphas, xs, starts):
    """Every leave-one-out estimate of the sorted sample xs at each alpha of
    alphas (k,), by Newton from that alpha's row of starts (k, p): held-out
    point i weights every point but xs[i] by 1/(n - 1). All n k rows are
    one _solve_rows call. Returns (theta (n, k, p), solved (n, k))."""
    n, k = xs.size, len(alphas)
    theta, solved, _ = _solve_rows(
        family,
        np.tile(alphas, n),
        n * k,
        n,
        lambda rows: (xs, (np.arange(n) != rows[:, None] // k) / (n - 1)),
        np.tile(starts, (n, 1)),
    )
    return theta.reshape(n, k, family.param_count), solved.reshape(n, k)


def alpha_search(evaluate, refine):
    """Minimize evaluate over alpha in [0, 1].

    evaluate(alphas) gives, for each alpha of a tuple, (value, fit), or
    the DpdError that leaves that alpha unscored, as fit_alphas marks a
    failed fit. It is called once for the whole of COARSE_GRID, whose
    unscored alphas are left out of the curve, then with
    `refine` once per golden-section step, to width 1e-3 between the best
    alpha's scored neighbours, up to the first alpha it cannot score.
    Each alpha is evaluated once; ties break toward the smaller alpha.
    Returns {alpha: (value, fit)} and its argmin (None if empty). Not
    exported.
    """
    scores = zip(COARSE_GRID, evaluate(COARSE_GRID))
    curve = {alpha: scored for alpha, scored in scores if not isinstance(scored, DpdError)}

    def value(alpha):
        if alpha not in curve:
            (scored,) = evaluate((alpha,))
            if isinstance(scored, DpdError):
                return None
            curve[alpha] = scored
        return curve[alpha][0]

    def argmin():
        return min(curve, key=lambda al: (curve[al][0], al), default=None)

    if refine and curve:
        grid = sorted(curve)
        pos = grid.index(argmin())
        a, b = grid[max(pos - 1, 0)], grid[min(pos + 1, len(grid) - 1)]
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc = value(c)
        fd = None if fc is None else value(d)
        while None not in (fc, fd) and b - a > 1e-3:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = value(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = value(d)
    return curve, argmin()


def _cvm_points(family, alphas, xs):
    """(cvm_distance, full-sample fit) of the sorted sample xs at each
    alpha, from one batched full-sample fit and one leave-one-out solve,
    or the DpdError that leaves the alpha unscored: its full-sample
    fit's, or a TuningError naming its first unsolved held-out row."""
    n = xs.size
    try:
        scored = fit_alphas(family, alphas, xs)
    except DpdError as exc:
        return [exc] * len(alphas)
    fitted = [j for j, full in enumerate(scored) if not isinstance(full, DpdError)]
    theta, solved = _loo_points(
        family, [alphas[j] for j in fitted], xs, [scored[j].theta_hat.values for j in fitted]
    )
    for k, j in enumerate(fitted):
        unsolved = np.flatnonzero(~solved[:, k])
        if unsolved.size:
            scored[j] = TuningError(
                f"leave-one-out fit {unsolved[0] + 1} of {n} is unsolved at alpha={alphas[j]:g}"
            )
        else:
            resid = (np.arange(n) + 0.5) / n - family.cdf(tuple(theta[:, k].T), xs)
            scored[j] = (float(resid @ resid) / n, scored[j])
    return scored


def cvm_distance(family, alpha, sample):
    """Leave-one-out CVM distance at one alpha, all n held-out estimates
    solved together by Newton from the full-sample fit, to rounding.
    Raises the error that leaves the alpha unscored: the full-sample
    fit's, or a TuningError naming the (1-based) index of the first
    held-out row that the guard of estimator._solve_rows left unsolved."""
    xs = _sorted_values(sample, family.param_count)
    (scored,) = _cvm_points(family, (alpha,), xs)
    if isinstance(scored, DpdError):
        raise scored
    return scored[0]


def select_alpha(family, sample, refine=True):
    """Minimize the CVM distance over alpha in [0, 1] by alpha_search.

    Each alpha's full-sample fit, from the moment start, is scored by
    cvm_distance, and `fit_star` is the fit scored at `alpha_star`. The
    grid is one fit_alphas call and one leave-one-out solve, each row
    starting from its alpha's fit. An alpha at which cvm_distance would
    raise is left out of `cvmd_curve`; only when no grid alpha is scored
    is a TuningError raised, with the error at alpha = 0. `refine=False`
    stops after the grid. Deterministic: no randomness in the sweep.
    """
    xs = _sorted_values(sample, family.param_count)
    unscored = []

    def evaluate(alphas):
        scored = _cvm_points(family, alphas, xs)
        unscored.extend(s for s in scored if isinstance(s, DpdError))
        return scored

    curve, alpha_star = alpha_search(evaluate, refine)
    if alpha_star is None:
        raise TuningError(f"no alpha could be scored for {family.tag}; at alpha=0: {unscored[0]}")
    cvmd_star, fit_star = curve[alpha_star]
    return TuningResult(
        family=family,
        alpha_grid=COARSE_GRID,
        cvmd_curve={alpha: value for alpha, (value, _) in curve.items()},
        alpha_star=float(alpha_star),
        cvmd_star=float(cvmd_star),
        fit_star=fit_star,
    )
