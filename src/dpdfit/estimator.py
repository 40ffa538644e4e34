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

from .errors import DomainError, FitError
from .families import (
    ParamVector,
    _check_family,
    _check_x,
    _divergence_terms,
    _mat,
    _shape_floor,
    _vec,
    check_dpd_valid,
    log_density,
    score,
    weighted_moments,
)
from .numerics import find_root_bracketed, minimize

__all__ = ["FitResult", "objective_h", "estimating_residual", "fit", "dpd_weights"]


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


def _degenerate(family, vals):
    """True when vals cannot be fitted: all equal, with two parameters."""
    return family.param_count == 2 and float(vals.max() - vals.min()) == 0.0


def _h(family, v, alpha, vals, lnx):
    """H = M - k mean(g) at parameter values v, lnx = log(vals): the one
    reduction of the divergence terms, for objective_h and fit alike."""
    m, k, g = _divergence_terms(family, v, alpha, vals, lnx)
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
    w = np.exp(alpha * log_density(theta, vals))
    return (u * w[:, None]).mean(axis=0) - weighted_moments(theta, alpha)[2]


def dpd_weights(family, theta, alpha, sample):
    """Per-observation weights f_theta^alpha; identically 1 at alpha = 0."""
    _check_family(family, theta)
    vals = _sample_values(sample)
    if alpha == 0.0:
        return np.ones_like(vals)
    return np.exp(alpha * log_density(theta, vals))


# --- polish steps -----------------------------------------------------------

def _polish_root(family, lam, alpha, vals, scan_roots):
    """Root of the scalar U_n nearest the minimizer; warn when several roots exist."""
    un = lambda l: family.un(l, alpha, vals)
    roots = []
    if scan_roots:
        grid = lam * np.exp2(np.linspace(-5.0, 5.0, 41))
        ug = np.array([un(g) for g in grid])
        sign = np.sign(ug)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            roots.append(find_root_bracketed(un, grid[i], grid[i + 1]))
        if len(roots) > 1:
            warnings.warn(
                f"estimating equation has {len(roots)} roots; "
                "using the one closest to the objective minimizer",
                RuntimeWarning,
            )
    if not roots:
        lo, hi = 0.5 * lam, 2.0 * lam
        for _ in range(60):
            if un(lo) * un(hi) <= 0:
                roots.append(find_root_bracketed(un, lo, hi))
                break
            lo *= 0.5
            hi *= 2.0
    if not roots:
        return lam
    return min(roots, key=lambda r: abs(math.log(r / lam)))


def _polish_newton(family, theta, alpha, vals):
    """A few finite-difference Newton steps on U_n = 0.

    Cheap insurance that the returned point solves the estimating
    equation to well below the optimizer's own resolution. Any failure
    (singular step, residual growth) silently keeps the simplex result.
    """
    k = family.param_count
    best = np.asarray(theta.values, dtype=float)
    try:
        res = estimating_residual(family, ParamVector(family, tuple(best)), alpha, vals)
    except (DomainError, OverflowError):
        return theta
    best_norm = float(np.max(np.abs(res)))
    cur = best.copy()
    for _ in range(4):
        if best_norm <= 1e-12:
            break
        jac = np.empty((k, k))
        ok = True
        for j in range(k):
            h = 1e-6 * (1.0 + abs(cur[j]))
            stepped = cur.copy()
            stepped[j] += h
            try:
                r2 = estimating_residual(
                    family, ParamVector(family, tuple(stepped)), alpha, vals
                )
            except (DomainError, OverflowError):
                ok = False
                break
            jac[:, j] = (r2 - res) / h
        if not ok:
            break
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        trial = cur + delta
        try:
            new = ParamVector(family, tuple(trial))
            check_dpd_valid(new, alpha)
            r_new = estimating_residual(family, new, alpha, vals)
        except (DomainError, OverflowError):
            break
        norm = float(np.max(np.abs(r_new)))
        if not math.isfinite(norm) or norm >= best_norm:
            break
        cur, res, best_norm = trial, r_new, norm
        best = cur
    return ParamVector(family, tuple(best))


# --- batched Newton on weighted objectives ------------------------------------

_NEWTON_CAP = 50
_NEWTON_HALVINGS = 10
_NEWTON_RTOL = 1e-13


def _weighted_terms(family, alpha, x, lnx, weights, theta):
    """H, its gradient and Hessian, and H's rounding scale, at each row of
    theta (m, p) for the objective sum_j weights[j, r] v_alpha(x_j).

    x and lnx are columns (n, 1) and each column of weights (n, m) sums
    to one. The gradient of v_j is (1+alpha)(xi - f_j^alpha u_j) and
    its Hessian (1+alpha)[dxi - f_j^alpha (alpha u_j u_j' + du_j)],
    with dxi = integral of du f^(1+alpha) + (1+alpha) integral of
    u u' f^(1+alpha); at alpha = 0 that is Newton on the mean negative
    log-likelihood, xi and dxi being zero.
    """
    v = tuple(theta.T)
    mass, k, g = _divergence_terms(family, v, alpha, x, lnx)
    wg = weights * g
    h = mass - k * wg.sum(axis=0)
    scale = np.abs(mass) + k * np.abs(wg).sum(axis=0)
    if alpha == 0.0:
        wg = weights
        xi = dxi = 0.0
    else:
        uu, xi, du_int = family.moments(v, alpha, mass)
        dxi = du_int + (1.0 + alpha) * uu
    u = family.score(v, x)
    wu = [wg * uq for uq in u]
    grad = xi - _vec([wuq.sum(axis=0) for wuq in wu])
    curv = _mat(
        [
            [(alpha * wup * uq + wg * dpq).sum(axis=0) for uq, dpq in zip(u, drow)]
            for wup, drow in zip(wu, family.dscore(v, x))
        ]
    )
    return h, (1.0 + alpha) * grad, (1.0 + alpha) * (dxi - curv), scale


def _newton_step(grad, hess):
    """(Newton step, ok) per row; ok is False where the Hessian is not
    finite and positive definite."""
    ok = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
    eye = np.eye(grad.shape[1])
    hess = np.where(ok[:, None, None], hess, eye)
    ok &= np.linalg.eigvalsh(hess)[:, 0] > 0.0
    hess = np.where(ok[:, None, None], hess, eye)
    return np.linalg.solve(hess, grad[:, :, None])[:, :, 0], ok


def _newton_rows(family, alpha, xs, weights, start):
    """Minimize sum_j weights[r, j] v_alpha(theta_r, xs[j]) for every row r
    of weights (m, n), each summing to one, by damped Newton from start.

    A step that leaves the parameter space, crosses the gamma or Weibull
    shape floor alpha/(1+alpha) or does not lower H (up to rounding) is
    halved, at most _NEWTON_HALVINGS times in a row. Returns
    (theta (m, p), solved (m,)): row r is solved when a full Newton step
    falls below _NEWTON_RTOL of theta within _NEWTON_CAP evaluations,
    at a finite, positive definite Hessian. A row that breaks any of
    these stops where it is, unsolved.
    """
    x = xs[:, None]
    lnx = np.log(x)
    theta = np.tile(np.asarray(start, dtype=float), (weights.shape[0], 1))
    solved = np.zeros(weights.shape[0], dtype=bool)
    floor = _shape_floor(alpha)
    with np.errstate(all="ignore"):
        h, grad, hess, scale = _weighted_terms(family, alpha, x, lnx, weights.T, theta)
        step, ok = _newton_step(grad, hess)
        live, h, scale, step = np.flatnonzero(ok), h[ok], scale[ok], step[ok]
        halvings = np.zeros(live.size, dtype=int)
        for _ in range(_NEWTON_CAP):
            done = np.abs(step).max(axis=1) <= _NEWTON_RTOL * np.abs(theta[live]).max(axis=1)
            theta[live[done]] -= step[done]
            solved[live[done]] = True
            live, h, scale, step, halvings = (
                a[~done] for a in (live, h, scale, step, halvings)
            )
            if live.size == 0:
                break
            trial = theta[live] - np.ldexp(step, -halvings[:, None])
            down = np.isfinite(trial).all(axis=1)
            if family.shaped:
                down &= trial[:, 0] > floor
            h_t, grad, hess, scale_t = _weighted_terms(
                family, alpha, x, lnx, weights[live[down]].T, trial[down]
            )
            lower = h_t <= h[down] + 1e-12 * scale[down]
            down[down] = lower
            new_step, ok = _newton_step(grad[lower], hess[lower])
            theta[live[down]] = trial[down]
            h[down], scale[down], step[down] = h_t[lower], scale_t[lower], new_step
            halvings = np.where(down, 0, halvings + 1)
            keep = halvings <= _NEWTON_HALVINGS
            keep[down] = ok
            live, h, scale, step, halvings = (a[keep] for a in (live, h, scale, step, halvings))
            if live.size == 0:
                break
    return theta, solved


def fit(family, alpha, sample, warm_start=None, fast=False):
    """Fit one family at a fixed tuning parameter alpha.

    Minimizes H over log-reparameterized parameters (the lognormal
    log-mean stays unconstrained), starting from `warm_start` when
    given and from the family's moment start otherwise. The returned
    point is polished against the estimating equation: a bracketed
    root solve where the family gives a scalar U_n (the exponential),
    Newton steps otherwise. `theta_hat` is the point whose H is
    returned as `objective`, so objective == objective_h(theta_hat).

    `fast=True` is for sweep drivers (bootstrap replicates, the
    full-sample fit of leave-one-out tuning and its fallback refits)
    that run many warm-started refits: it skips the polish and
    restarts and accepts 1e-6 parameter accuracy.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    polish = not fast
    vals = _sample_values(sample)
    if vals.size < family.param_count + 1:
        raise FitError(
            f"need at least {family.param_count + 1} observations "
            f"to fit {family.tag}, got {vals.size}"
        )
    if _degenerate(family, vals):
        raise FitError(
            f"sample is degenerate (all values equal); {family.tag} fit has "
            "no interior optimum"
        )

    floor = _shape_floor(alpha)
    if warm_start is not None:
        _check_family(family, warm_start)
        start = np.asarray(warm_start.values, dtype=float)
        if family.shaped:
            start[0] = max(start[0], floor + 0.05)
    else:
        start = family.start(vals, alpha)

    evals = 0
    lnx = np.log(vals)

    def obj(z):
        # hot loop: plain tuples and precomputed log(x), no re-validation
        nonlocal evals
        evals += 1
        try:
            tv = family.unlog(z)
        except OverflowError:
            return np.inf
        if tv is None or (family.shaped and tv[0] <= floor):
            return np.inf
        try:
            h = _h(family, tv, alpha, vals, lnx)
        except OverflowError:
            return np.inf
        return h if math.isfinite(h) else np.inf

    step = 0.003 if warm_start is not None else None
    z0 = family.to_log(start)
    start_obj = obj(z0)
    if not np.isfinite(start_obj):
        raise FitError(f"objective not finite at the {family.tag} start point")

    z_hat = None
    did_root = False
    if family.un is not None and warm_start is not None and fast:
        # sweep fast path: the unique interior root of U_n is the minimizer
        lam = _polish_root(family, float(start[0]), alpha, vals, scan_roots=False)
        z_root = family.to_log([lam])
        h_root = obj(z_root)
        if h_root <= start_obj:
            z_hat, h_val, converged, did_root = z_root, h_root, True, True
    if z_hat is None:
        z_hat, h_val, converged = minimize(obj, z0, fast=fast, initial_step=step)
    # exactly the tuple obj(z_hat) scored, so objective == objective_h(theta)
    theta = ParamVector(family, family.unlog(z_hat))

    # Polishing may trade a sub-tolerance amount of objective for a much
    # smaller estimating-equation residual; h_val <= start_obj already, so
    # the result is never worse than the start by more than that amount.
    cand = None
    if family.un is not None and not did_root:
        cand = ParamVector(family, (_polish_root(family, theta.values[0], alpha, vals, polish),))
    elif family.un is None and polish:
        cand = _polish_newton(family, theta, alpha, vals)
    if cand is not None:
        h_cand = objective_h(family, cand, alpha, vals)
        if h_cand <= h_val + 1e-12:
            theta, h_val = cand, h_cand

    if not converged:
        warnings.warn(
            f"{family.tag} fit at alpha={alpha:g} did not meet optimizer "
            "tolerances; returning best point found",
            RuntimeWarning,
        )
    return FitResult(
        family=family,
        alpha=float(alpha),
        theta_hat=theta,
        objective=float(h_val),
        converged=bool(converged),
        n_obs=int(vals.size),
        evaluations=evals,
    )
