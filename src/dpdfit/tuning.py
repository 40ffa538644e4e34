"""Data-driven choice of the tuning parameter alpha.

The criterion is a leave-one-out Cramer-von Mises distance: refit with
each order statistic removed, evaluate the held-out point's fitted CDF
against its plotting position (i - 0.5)/n, and average the squared
discrepancies.

The n refits are exact: held-out point i is row i of the counts 1 - I
over n - 1, a row of estimator._solve_rows as a bootstrap replicate's
draw counts are, solved to rounding by damped Newton with the
closed-form gradient and Hessian of the divergence terms, from the
one-step leave-one-out estimate of Giordano et al. (2019) and Rad &
Maleki (2020), which _solve_rows takes off the full-sample fits.

_score_alphas turns a batch of alphas into scored fits: one batched
full-sample fit (estimator.fit_alphas), alpha being a row axis of the
Newton kernel, and one leave-one-out solve of the fits that succeeded.
select_alpha scores the whole grid as one batch, its 21 n held-out rows
being one solve, and refines by two more such batches: the points
k/200, then k/1000, between the best alpha's scored neighbours.
cvm_distance is a batch of one alpha.

The search leaves out an alpha whose full-sample fit fails or whose
held-out rows are not all solved; the curve records it by its absence.

On clean data the curve is nearly flat in alpha (it varies by a few
1e-4 at most for n = 250), so its argmin can land anywhere on the
grid. Contamination makes alpha = 0 clearly worse (many times the
curve minimum) and moves the minimum to alpha > 0.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import write_rows
from .errors import DomainError, DpdError, TuningError
from .estimator import _sample_values, _solve_rows, fit_alphas

__all__ = ["TuningResult", "cvm_distance", "select_alpha", "COARSE_GRID"]

# Coarse search grid {0, 0.05, ..., 1.0}.
COARSE_GRID = tuple(k / 20.0 for k in range(21))

# Lattice steps of the refinement rounds, alphas k/200 then k/1000: the
# last resolves alpha_star to 1e-3.
_REFINE_STEPS = (200, 1000)


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
    row of fits (k, p): held-out point i weights xs by row i of the
    counts 1 - I over n - 1, one _solve_rows call of all n k rows.
    Returns (theta (n, k, p), solved (n, k))."""
    n = xs.size
    theta, solved, _ = _solve_rows(family, alphas, xs, 1 - np.eye(n, dtype=np.uint8), n - 1, fits)
    return theta.reshape(n, len(alphas), family.param_count), solved.reshape(n, len(alphas))


def _score_alphas(family, alphas, xs):
    """(CVM distance, fit) of the sorted sample xs at each alpha, or the
    DpdError that leaves it unscored: its fit's, a TuningError naming its
    first unsolved held-out row or, everywhere, the one for values that
    cannot be fitted at all. One fit_alphas call and one leave-one-out
    solve of the fits that succeeded, none when no fit did."""
    try:
        fits = fit_alphas(family, alphas, xs)
    except DpdError as exc:
        return [exc] * len(alphas)
    ok = [res for res in fits if not isinstance(res, DpdError)]
    if not ok:
        return fits
    theta, solved = _loo_points(
        family, [res.alpha for res in ok], xs, [res.theta_hat.values for res in ok]
    )
    n = xs.size
    scores = []
    for k, res in enumerate(ok):
        unsolved = np.flatnonzero(~solved[:, k])
        if unsolved.size:
            scores.append(TuningError(
                f"leave-one-out fit {unsolved[0] + 1} of {n} is unsolved at alpha={res.alpha:g}"
            ))
        else:
            resid = (np.arange(n) + 0.5) / n - family.cdf(tuple(theta[:, k].T), xs)
            scores.append((float(resid @ resid) / n, res))
    scores = iter(scores)
    return [res if isinstance(res, DpdError) else next(scores) for res in fits]


def cvm_distance(family, alpha, sample):
    """Leave-one-out CVM distance at one alpha, all n held-out estimates
    solved together by Newton from their one-step estimates, to rounding.
    Raises the error that leaves the alpha unscored: the full-sample
    fit's, or a TuningError naming the (1-based) index of the first
    held-out row that the guard of estimator._solve_rows left unsolved."""
    xs = _sorted_values(sample, family.param_count)
    (scored,) = _score_alphas(family, (alpha,), xs)
    if isinstance(scored, DpdError):
        raise scored
    return scored[0]


def select_alpha(family, sample, refine=True):
    """Minimize the CVM distance over alpha in [0, 1] by rounds of lattice
    points, each round one _score_alphas batch: one fit_alphas call and
    one leave-one-out solve, each held-out row starting one Newton step
    off its alpha's fit.

    The first round is the whole of COARSE_GRID; with `refine`, the next
    are every point k/200, then every point k/1000, that lies strictly
    between the best alpha's scored neighbours and was not tried before.
    An alpha at which cvm_distance would raise is left out of
    `cvmd_curve` and not tried again; only when no grid alpha is scored
    is a TuningError raised, with the error at alpha = 0. Ties break
    toward the smaller alpha, and `fit_star` is the fit scored at
    `alpha_star`. Deterministic: no randomness in the sweep.
    """
    xs = _sorted_values(sample, family.param_count)
    on_grid = _score_alphas(family, COARSE_GRID, xs)
    curve = {al: s for al, s in zip(COARSE_GRID, on_grid) if not isinstance(s, DpdError)}
    if not curve:
        raise TuningError(f"no alpha could be scored for {family.tag}; at alpha=0: {on_grid[0]}")

    def argmin():
        return min(curve, key=lambda al: (curve[al][0], al))

    # k/20 == 10k/200 == 50k/1000 as floats, so one set holds every lattice
    tried = set(COARSE_GRID)
    for step in _REFINE_STEPS if refine else ():
        grid = sorted(curve)
        pos = grid.index(argmin())
        lo, hi = grid[max(pos - 1, 0)], grid[min(pos + 1, len(grid) - 1)]
        inside = (k / step for k in range(round(lo * step) + 1, round(hi * step)))
        batch = tuple(al for al in inside if al not in tried)
        tried.update(batch)
        scored = _score_alphas(family, batch, xs)
        curve.update((al, s) for al, s in zip(batch, scored) if not isinstance(s, DpdError))
    alpha_star = argmin()
    cvmd_star, fit_star = curve[alpha_star]
    return TuningResult(
        family=family,
        alpha_grid=COARSE_GRID,
        cvmd_curve={alpha: value for alpha, (value, _) in curve.items()},
        alpha_star=float(alpha_star),
        cvmd_star=float(cvmd_star),
        fit_star=fit_star,
    )
