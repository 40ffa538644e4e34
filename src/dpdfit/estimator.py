"""Minimum density power divergence estimation.

The estimate minimizes the empirical divergence objective H over the
parameter space; equivalently it solves the weighted estimating
equation U_n = 0, with observation weights f_theta^alpha that damp
outliers. alpha = 0 recovers maximum likelihood.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DpdError, FitError
from .families import (
    ParamVector,
    _check_family,
    _check_x,
    _divergence_terms,
    _shape_floor,
    _vec,
    check_dpd_valid,
    log_density,
    score,
    weighted_moments,
)

__all__ = ["FitResult", "objective_h", "estimating_residual", "fit", "fit_alphas", "dpd_weights"]


@dataclass(frozen=True)
class FitResult:
    family: object
    alpha: float
    theta_hat: ParamVector
    objective: float
    converged: bool
    n_obs: int
    evaluations: int


def _sample_values(sample):
    """The sample's values as a 1-d array, checked by families._check_x."""
    return np.atleast_1d(_check_x(sample))


def _h(family, v, alpha, vals, lnx):
    """H = M - k mean(g) at parameter values v, lnx = log(vals): the one
    reduction of the divergence terms, for objective_h and fit alike."""
    m, k, g = _divergence_terms(family, v, alpha, family.logf(v, vals, lnx))
    return m - k * float(np.mean(g))


def objective_h(family, theta, alpha, sample):
    """Empirical divergence H: the mean of the per-observation terms
    v_alpha, reduced as M - k mean(g).

    At alpha = 0 this is the mean negative log-likelihood.
    """
    _check_family(family, theta)
    check_dpd_valid(theta, alpha)
    vals = _sample_values(sample)
    return _h(family, theta.values, alpha, vals, np.log(vals))


def estimating_residual(family, theta, alpha, sample):
    """U_n(theta): weighted mean score minus its model expectation.

    Vanishes at the estimate; proportional to -grad H.
    """
    _check_family(family, theta)
    check_dpd_valid(theta, alpha)
    vals = _sample_values(sample)
    u = score(theta, vals)
    if alpha == 0.0:
        # the model expectation of the score is exactly zero here
        return u.mean(axis=0)
    w = dpd_weights(family, theta, alpha, vals)
    return (u * w[:, None]).mean(axis=0) - weighted_moments(theta, alpha)[2]


def dpd_weights(family, theta, alpha, sample):
    """Per-observation weights f_theta^alpha; identically 1 at alpha = 0."""
    _check_family(family, theta)
    vals = _sample_values(sample)
    if alpha == 0.0:
        return np.ones_like(vals)
    return np.exp(alpha * log_density(theta, vals))


# --- batched Newton on weighted objectives ------------------------------------

# About twice the most evaluations (28) any fit of the test suite or the
# benchmark inputs needs.
_NEWTON_CAP = 50
# 2^-30 < 1e-8: halving can undo the eigenvalue floor's amplification
# of a step along a direction of negative curvature.
_NEWTON_HALVINGS = 30
_NEWTON_RTOL = 1e-13


def _weighted_terms(family, alpha, x, lnx, weights, theta):
    """H, its gradient and Hessian, and H's rounding scale, at each row of
    theta (m, p) for the objective sum_j weights[r, j] v_alpha(x[r, j]),
    alpha being one float or one value per row (m,).

    x and lnx = log x are one row (1, n) shared by every row of theta or
    one row each (m, n), and each row of weights (m, n) sums to one. With
    wg_j = weights_j f_j^alpha, H = M - (1 + 1/alpha) sum_j wg_j, its
    gradient is (1+alpha)(xi - sum_j wg_j u_j) and its Hessian
    (1+alpha)[dxi - sum_j wg_j (alpha u_j u_j' + du_j)], with dxi =
    integral of du f^(1+alpha) + (1+alpha) integral of u u' f^(1+alpha).
    An alpha = 0 row has wg = weights exactly, so the same formula is
    Newton on its negative log-likelihood once H and its scale are taken
    as -sum_j wg_j ln f_j and sum_j |wg_j ln f_j|, and xi and dxi as 0,
    which their closed forms give only up to rounding. family.terms gives
    ln f, u and du once; a du entry constant in x multiplies sum_j wg_j,
    and only the Hessian's upper triangle is summed.

    Sums run along contiguous rows of (m, n) arrays, so no row's result
    depends on its batch.
    """
    v, vc = tuple(theta.T), tuple(theta.T[:, :, None])
    col = alpha if np.ndim(alpha) == 0 else alpha[:, None]
    lift = np.reshape(1.0 + alpha, (-1, 1))
    zero = np.broadcast_to(np.equal(alpha, 0.0), theta.shape[:1])
    lnf, u, du = family.terms(vc, x, lnx)
    mass = np.ravel(family.mass(vc, col))
    wg = weights * np.exp(col * lnf)
    total = wg.sum(axis=1)
    k = 1.0 + 1.0 / np.where(zero, 1.0, alpha)
    h = mass - k * total
    # wg >= 0
    scale = np.abs(mass) + k * total
    uu, xi, du_int = family.moments(v, alpha, mass)
    xi = np.where(zero[:, None], 0.0, xi)
    dxi = np.where(zero[:, None, None], 0.0, du_int + lift[:, :, None] * uu)
    if zero.any():
        wl = wg[zero] * lnf[zero]
        h[zero] = -wl.sum(axis=1)
        scale[zero] = np.abs(wl).sum(axis=1)
    wu = [wg * uq for uq in u]
    grad = xi - _vec([wuq.sum(axis=1) for wuq in wu])
    curv = np.empty((theta.shape[0], len(u), len(u)))
    for i, j in zip(*np.triu_indices(len(u))):
        d = du[i][j]
        entry = total * d[:, 0] if np.shape(d)[-1] == 1 else (wg * d).sum(axis=1)
        curv[:, i, j] = curv[:, j, i] = entry + alpha * (wu[i] * u[j]).sum(axis=1)
    return h, lift * grad, lift[:, :, None] * (dxi - curv), scale


def _newton_step(grad, hess):
    """(Newton step, finite, pd) per row, from the Hessian's eigenvalues.

    Where the Hessian is not positive definite each eigenvalue lambda is
    replaced by max(|lambda|, 1e-8 max|lambda|), which keeps the step a
    descent direction; pd marks the rows whose step is the plain Newton
    step. finite is False where the gradient or Hessian is not finite
    or the Hessian is zero; those rows' steps are meaningless.
    """
    finite = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
    lam, vec = np.linalg.eigh(np.where(finite[:, None, None], hess, np.eye(grad.shape[1])))
    top = np.abs(lam).max(axis=1, keepdims=True)
    finite &= top[:, 0] > 0.0
    pd = finite & (lam[:, 0] > 0.0)
    lam = np.where(pd[:, None], lam, np.maximum(np.abs(lam), 1e-8 * top))
    coef = np.einsum("rij,ri->rj", vec, grad) / lam
    return np.einsum("rij,rj->ri", vec, coef), finite, pd


def _newton_rows(family, alphas, values, weights, starts):
    """Minimize sum_j weights[r, j] v_alpha(theta_r, values[r, j]) with
    alpha = alphas[r] for every row r of weights (m, n), each summing to
    one, by damped Newton from starts[r]; values is one row (n,) shared
    by every row or one row each (m, n). alpha = 0 rows, maximum
    likelihood, are rows like any other.

    Where the Hessian is not positive definite the step is the
    eigenvalue-modified one of _newton_step. A step that leaves the
    parameter space, crosses the row's gamma or Weibull shape floor
    alpha/(1+alpha) or does not lower H (up to rounding) is halved, at
    most _NEWTON_HALVINGS times in a row. Returns (theta (m, p),
    solved (m,), evaluations (m,)): row r is solved when a full Newton
    step at a positive definite Hessian falls below _NEWTON_RTOL of
    theta within _NEWTON_CAP steps; evaluations counts the points at
    which its H, gradient and Hessian were taken. A row whose gradient
    or Hessian is not finite, or that runs out of halvings, stops where
    it is, unsolved.
    """
    x = np.atleast_2d(values)
    lnx = np.log(x)

    def at(rows):
        return (x, lnx) if x.shape[0] == 1 else (x[rows], lnx[rows])

    theta = np.array(starts, dtype=float)
    m = theta.shape[0]
    solved = np.zeros(m, dtype=bool)
    evals = np.ones(m, dtype=int)
    floor = _shape_floor(alphas)
    # Rows at one alpha take it as a float: numpy multiplies an (m, n)
    # array by a column of alphas about three times slower.
    alpha = float(alphas[0]) if (alphas == alphas[0]).all() else alphas
    with np.errstate(all="ignore"):
        h, grad, hess, scale = _weighted_terms(family, alpha, x, lnx, weights, theta)
        step, ok, pd = _newton_step(grad, hess)
        live = np.flatnonzero(ok)
        h, scale, step, pd = h[ok], scale[ok], step[ok], pd[ok]
        halvings = np.zeros(live.size, dtype=int)
        for _ in range(_NEWTON_CAP):
            done = pd & (
                np.abs(step).max(axis=1) <= _NEWTON_RTOL * np.abs(theta[live]).max(axis=1)
            )
            theta[live[done]] -= step[done]
            solved[live[done]] = True
            live, h, scale, step, pd, halvings = (
                a[~done] for a in (live, h, scale, step, pd, halvings)
            )
            if live.size == 0:
                break
            trial = theta[live] - np.ldexp(step, -halvings[:, None])
            down = np.isfinite(trial).all(axis=1)
            if family.shaped:
                down &= trial[:, 0] > floor[live]
            rows = live[down]
            h_t, grad, hess, scale_t = _weighted_terms(
                family,
                alpha if np.ndim(alpha) == 0 else alpha[rows],
                *at(rows),
                weights[rows],
                trial[down],
            )
            evals[rows] += 1
            lower = h_t <= h[down] + 1e-12 * scale[down]
            down[down] = lower
            new_step, ok, new_pd = _newton_step(grad[lower], hess[lower])
            theta[live[down]] = trial[down]
            h[down], scale[down], step[down], pd[down] = (
                h_t[lower], scale_t[lower], new_step, new_pd
            )
            halvings = np.where(down, 0, halvings + 1)
            keep = halvings <= _NEWTON_HALVINGS
            keep[down] = ok
            live, h, scale, step, pd, halvings = (
                a[keep] for a in (live, h, scale, step, pd, halvings)
            )
            if live.size == 0:
                break
    return theta, solved, evals


# Weight entries per Newton batch, which bounds its memory.
_ROW_BUDGET = 1 << 14


def _solve_rows(family, alphas, m, width, weights_of, starts):
    """_newton_rows' (theta, solved, evaluations) for rows 0..m-1, row r at
    alphas[r] from starts[r]; alphas (m,) and starts (m, p) may be anything
    that broadcasts to those shapes. Rows are solved in order,
    _ROW_BUDGET // width at a time whatever their alphas, weights_of(rows)
    giving a batch's (values, weights): values (width,) shared by the
    batch or one row per row (rows.size, width), and weights (rows.size,
    width). A two-parameter row whose positively weighted values are all
    equal is unsolved, as fit refuses such a sample."""
    p = family.param_count
    alphas = np.broadcast_to(np.asarray(alphas, dtype=float), (m,))
    starts = np.broadcast_to(np.reshape(np.asarray(starts, dtype=float), (-1, p)), (m, p))
    theta = np.empty((m, p))
    solved = np.empty(m, dtype=bool)
    evals = np.empty(m, dtype=int)
    chunk = max(_ROW_BUDGET // width, 1)
    for lo in range(0, m, chunk):
        rows = np.arange(lo, min(lo + chunk, m))
        values, weights = weights_of(rows)
        theta[rows], solved[rows], evals[rows] = _newton_rows(
            family, alphas[rows], values, weights, starts[rows]
        )
        if p == 2:
            drawn = weights > 0.0
            top = np.where(drawn, values, -np.inf).max(axis=1)
            solved[rows] &= top > np.where(drawn, values, np.inf).min(axis=1)
    return theta, solved, evals


def _checked_values(family, alphas, sample):
    """The sample's values, after the checks that fail a fit at any alpha."""
    if not all(0.0 <= alpha <= 1.0 for alpha in alphas):
        raise DomainError("alpha must lie in [0, 1]")
    vals = _sample_values(sample)
    if vals.size < family.param_count + 1:
        raise FitError(
            f"need at least {family.param_count + 1} observations "
            f"to fit {family.tag}, got {vals.size}"
        )
    if family.param_count == 2 and vals.max() == vals.min():
        raise FitError(
            f"sample is degenerate (all values equal); {family.tag} fit has "
            "no interior optimum"
        )
    return vals


def _fit_rows(family, alphas, vals, starts):
    """fit's result at each alpha from its start, or the DpdError fit
    raises there, by one _solve_rows call with weight 1/n per value."""
    n = vals.size
    theta, solved, evals = _solve_rows(
        family,
        alphas,
        len(alphas),
        n,
        lambda rows: (vals, np.full((rows.size, n), 1.0 / n)),
        starts,
    )
    lnx = np.log(vals)
    out = []
    for alpha, row, converged, count in zip(alphas, theta, solved.tolist(), evals.tolist()):
        try:
            theta_hat = ParamVector(family, tuple(row))
            with np.errstate(all="ignore"):
                h_val = _h(family, theta_hat.values, alpha, vals, lnx)
            if not math.isfinite(h_val):
                raise FitError(f"objective not finite at the {family.tag} start point")
        except DpdError as exc:
            out.append(exc)
            continue
        if not converged:
            warnings.warn(
                f"{family.tag} fit at alpha={alpha:g} did not meet optimizer "
                "tolerances; returning best point found",
                RuntimeWarning,
            )
        out.append(
            FitResult(
                family=family,
                alpha=float(alpha),
                theta_hat=theta_hat,
                objective=float(h_val),
                converged=converged,
                n_obs=n,
                evaluations=count,
            )
        )
    return out


def fit(family, alpha, sample, warm_start=None):
    """Fit one family at a fixed tuning parameter alpha.

    Minimizes H by damped Newton as the one row of _solve_rows, weight
    1/n per observation, from `warm_start` when given (a gamma or Weibull
    shape is raised to at least its floor plus 0.05) and from the
    family's moment start otherwise. `converged` reports whether Newton
    reached rounding at a positive definite Hessian. `objective` is H at
    the returned `theta_hat`, so objective == objective_h(theta_hat).

    The package's own searches fit through fit_alphas; `warm_start` stays
    as the per-replicate reference route that the row-solver tests hold
    every batched refit to.
    """
    vals = _checked_values(family, (alpha,), sample)
    if warm_start is not None:
        _check_family(family, warm_start)
        start = np.asarray(warm_start.values, dtype=float)
        if family.shaped:
            start[0] = max(start[0], _shape_floor(alpha) + 0.05)
    else:
        start = family.start(vals, (alpha,))
    (res,) = _fit_rows(family, (alpha,), vals, start)
    if isinstance(res, DpdError):
        raise res
    return res


def fit_alphas(family, alphas, sample):
    """fit(family, alpha, sample) at each alpha of `alphas`, as one Newton
    solve whose row at alpha starts from the family's moment start there.

    Each entry is the FitResult fit returns at that alpha, bit for bit,
    or the DpdError fit raises there; a non-converged row warns as its
    fit does. An alpha outside [0, 1], too few values or, for a
    two-parameter family, all values equal raise once for the batch.
    """
    alphas = [float(alpha) for alpha in alphas]
    vals = _checked_values(family, alphas, sample)
    return _fit_rows(family, alphas, vals, family.start(vals, alphas))
