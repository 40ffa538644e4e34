"""Data-driven choice of the tuning parameter alpha.

The criterion is a leave-one-out Cramer-von Mises distance: refit with
each order statistic removed, evaluate the held-out point's fitted CDF
against its plotting position (i - 0.5)/n, and average the squared
discrepancies.

The n refits are exact: each held-out point is a row of
estimator._solve_rows, as a bootstrap replicate is, solved to rounding
by damped Newton with the closed-form gradient and Hessian of the
divergence terms, from the one-step leave-one-out estimate of Giordano
et al. (2019) and Rad & Maleki (2020), estimator._one_step_starts.

score_alphas turns a batch of alphas into scored fits: one batched
full-sample fit (estimator.fit_alphas), alpha being a row axis of the
Newton kernel, and one call of a scorer on the fits that succeeded.
alpha_search, the one alpha search, select_alpha's, scores the whole
grid as one batch, its 21 n held-out rows being one leave-one-out
solve, and each golden-section step as a batch of one alpha.
cvm_distance is a batch of one alpha, and so are selection.select_model
and selection.ric, scored by RIC.

The search leaves out an alpha whose full-sample fit fails or whose
held-out rows are not all solved; the curve records it by its absence.

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
from .estimator import _one_step_starts, _sample_values, _solve_rows, fit_alphas

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


def _loo_points(family, alphas, xs, fits):
    """Every leave-one-out estimate of the sorted sample xs at each alpha of
    alphas (k,), by Newton from the one-step estimate off that alpha's
    row of fits (k, p): held-out point i weights every point but xs[i] by
    1/(n - 1). All n k rows are one _solve_rows call. Returns (theta (n,
    k, p), solved (n, k))."""
    n, k = xs.size, len(alphas)
    theta, solved, _ = _solve_rows(
        family,
        np.tile(alphas, n),
        n * k,
        n,
        lambda rows: (xs, (np.arange(n) != rows[:, None] // k) / (n - 1)),
        _one_step_starts(family, alphas, xs, fits),
    )
    return theta.reshape(n, k, family.param_count), solved.reshape(n, k)


def score_alphas(family, alphas, values, score):
    """(value, fit) at each alpha, or the DpdError that leaves it unscored:
    its fit's, its score's or, everywhere, the one for values that cannot
    be fitted at all. One fit_alphas call, and one score(fits) call on
    the fits that succeeded, giving a value or a DpdError for each. Not
    exported."""
    try:
        fits = fit_alphas(family, alphas, values)
    except DpdError as exc:
        return [exc] * len(alphas)
    scores = iter(score([res for res in fits if not isinstance(res, DpdError)]))
    scored = [res if isinstance(res, DpdError) else next(scores) for res in fits]
    return [s if isinstance(s, DpdError) else (s, res) for s, res in zip(scored, fits)]


def alpha_search(family, values, score, refine):
    """Minimize score over alpha in [0, 1], by score_alphas batches: the
    whole of COARSE_GRID, whose unscored alphas are left out of the
    curve, then with `refine` one alpha per golden-section step, to width
    1e-3 between the best alpha's scored neighbours, up to the first
    alpha it cannot score. Each alpha is scored once; ties break toward
    the smaller alpha. Returns {alpha: (value, fit)} and its argmin, or
    the error at alpha = 0 when no alpha is scored. Not exported.
    """
    on_grid = score_alphas(family, COARSE_GRID, values, score)
    curve = {al: s for al, s in zip(COARSE_GRID, on_grid) if not isinstance(s, DpdError)}
    if not curve:
        return curve, on_grid[0]

    def value(alpha):
        if alpha not in curve:
            (scored,) = score_alphas(family, (alpha,), values, score)
            if isinstance(scored, DpdError):
                return None
            curve[alpha] = scored
        return curve[alpha][0]

    def argmin():
        return min(curve, key=lambda al: (curve[al][0], al))

    if refine:
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


def _cvm_scores(family, xs, fits):
    """The leave-one-out CVM distance of each full-sample fit of the sorted
    sample xs, from one leave-one-out solve, or a TuningError naming its
    first unsolved held-out row."""
    n = xs.size
    theta, solved = _loo_points(
        family, [res.alpha for res in fits], xs, [res.theta_hat.values for res in fits]
    )
    scores = []
    for k, res in enumerate(fits):
        unsolved = np.flatnonzero(~solved[:, k])
        if unsolved.size:
            scores.append(TuningError(
                f"leave-one-out fit {unsolved[0] + 1} of {n} is unsolved at alpha={res.alpha:g}"
            ))
        else:
            resid = (np.arange(n) + 0.5) / n - family.cdf(tuple(theta[:, k].T), xs)
            scores.append(float(resid @ resid) / n)
    return scores


def cvm_distance(family, alpha, sample):
    """Leave-one-out CVM distance at one alpha, all n held-out estimates
    solved together by Newton from their one-step estimates, to rounding.
    Raises the error that leaves the alpha unscored: the full-sample
    fit's, or a TuningError naming the (1-based) index of the first
    held-out row that the guard of estimator._solve_rows left unsolved."""
    xs = _sorted_values(sample, family.param_count)
    (scored,) = score_alphas(family, (alpha,), xs, lambda fits: _cvm_scores(family, xs, fits))
    if isinstance(scored, DpdError):
        raise scored
    return scored[0]


def select_alpha(family, sample, refine=True):
    """Minimize the CVM distance over alpha in [0, 1] by alpha_search.

    Each alpha's full-sample fit, from the moment start, is scored by
    cvm_distance, and `fit_star` is the fit scored at `alpha_star`. The
    grid is one fit_alphas call and one leave-one-out solve, each row
    starting one Newton step off its alpha's fit. An alpha at which
    cvm_distance would raise is left out of `cvmd_curve`; only when no
    grid alpha is scored is a TuningError raised, with the error at
    alpha = 0. `refine=False` stops after the grid. Deterministic: no
    randomness in the sweep.
    """
    xs = _sorted_values(sample, family.param_count)
    curve, alpha_star = alpha_search(family, xs, lambda fits: _cvm_scores(family, xs, fits), refine)
    if isinstance(alpha_star, DpdError):
        raise TuningError(f"no alpha could be scored for {family.tag}; at alpha=0: {alpha_star}")
    cvmd_star, fit_star = curve[alpha_star]
    return TuningResult(
        family=family,
        alpha_grid=COARSE_GRID,
        cvmd_curve={alpha: value for alpha, (value, _) in curve.items()},
        alpha_star=float(alpha_star),
        cvmd_star=float(cvmd_star),
        fit_star=fit_star,
    )
