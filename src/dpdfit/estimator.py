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
    _AlphaTerms,
    _check_family,
    _check_x,
    _checked_alpha,
    _divergence,
    _mat,
    _positive,
    _shape_floor,
    _times,
    _vec,
    check_dpd_valid,
    log_density,
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


def _h_rows(family, al, vals, theta):
    """H at each row of theta (m, p) at the alphas of al, weight 1/n per
    value, as _divergence reduces it for fit's Newton steps. Each row sums
    along its own contiguous row, so no row's H depends on the others."""
    with np.errstate(all="ignore"):
        lnf = family.logf(tuple(theta.T[:, :, None]), vals, np.log(vals))
        return _divergence(family, al, tuple(theta.T), lnf, 1.0 / vals.size)[3]


def objective_h(family, theta, alpha, sample):
    """Empirical divergence H: the mean of the per-observation terms
    v_alpha, reduced as M - (1 + 1/alpha) sum_j f_j^alpha / n.

    At alpha = 0 this is the mean negative log-likelihood, +inf where a
    density underflows to 0.
    """
    _check_family(family, theta)
    check_dpd_valid(theta, alpha)
    h = _h_rows(family, _AlphaTerms(alpha), _sample_values(sample), np.array([theta.values]))
    return float(h[0])


def estimating_residual(family, theta, alpha, sample):
    """U_n(theta): weighted mean score minus its model expectation, that
    is -grad H / (1 + alpha), from the kernel, _weighted_terms, at weight
    1/n. Vanishes at the estimate.
    """
    _check_family(family, theta)
    check_dpd_valid(theta, alpha)
    x = _sample_values(sample)[None]
    with np.errstate(all="ignore"):
        _, grad, _, _ = _weighted_terms(
            family, _AlphaTerms(alpha), x, np.log(x), 1.0 / x.size, np.array([theta.values])
        )
    return -grad[0] / (1.0 + alpha)


def dpd_weights(family, theta, alpha, sample):
    """Per-observation weights f_theta^alpha; identically 1 at alpha = 0.
    alpha and theta must pass check_dpd_valid."""
    _check_family(family, theta)
    check_dpd_valid(theta, alpha)
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


# The Hessian entries summed: its upper triangle, by parameter count.
_UPPER = {p: tuple((i, j) for i in range(p) for j in range(i, p)) for p in (1, 2)}
# Below this bound on every |u|, each alpha u u' sum of an alpha = 0
# batch is finite (|w u_i u_j| <= 2^1000 w and the weights sum to one),
# so 0 times it is 0 and need not be summed.
_U_BOUND = 2.0**500


def _weighted_terms(family, al, x, lnx, weights, theta):
    """H, its gradient and Hessian, and H's rounding scale, at each row of
    theta (m, p) for the objective sum_j weights[r, j] v_alpha(x[r, j]),
    al being the _AlphaTerms of one alpha per row.

    x and lnx = log x are one row (1, n) shared by every row of theta or
    one row each (m, n), and each row of weights (m, n), or what
    broadcasts to it, sums to one. H, its scale, wg_j = weights_j
    f_j^alpha and M come from families._divergence. H's gradient is
    (1+alpha)(xi - sum_j wg_j u_j) and its Hessian (1+alpha)[dxi - sum_j
    wg_j (alpha u_j u_j' + du_j)], with dxi = integral of du f^(1+alpha)
    + (1+alpha) integral of u u' f^(1+alpha). An alpha = 0 row has wg =
    weights exactly, so the same formula is Newton on its negative
    log-likelihood, _divergence's H there, once xi and dxi are taken as
    0, which their closed forms give only up to rounding. A batch all at
    alpha = 0 therefore skips M, the moments and f^alpha, and the alpha
    u u' sums while every |u| < _U_BOUND. family.terms gives ln f, u and
    du once; a du entry constant in x multiplies sum_j wg_j, and its
    integral is M du; only the Hessian's upper triangle is summed.

    Sums run along contiguous rows of (m, n) arrays, so no row's result
    depends on its batch.
    """
    v, vc = tuple(theta.T), tuple(theta.T[:, :, None])
    lnf, u, du = family.terms(vc, x, lnx)
    wg, total, mass, h, scale = _divergence(family, al, v, lnf, weights)
    wu = [wg * uq for uq in u]
    sums = _vec([wuq.sum(axis=1) for wuq in wu])
    sum_uu = not al.all_zero or not all((np.abs(uq) < _U_BOUND).all() for uq in u)
    curv = np.empty((theta.shape[0], len(u), len(u)))
    for i, j in _UPPER[len(u)]:
        d = du[i][j]
        entry = total * d[:, 0] if np.shape(d)[-1] == 1 else (wg * d).sum(axis=1)
        if sum_uu:
            entry = entry + al.alpha * (wu[i] * u[j]).sum(axis=1)
        curv[:, i, j] = curv[:, j, i] = entry
    if al.all_zero:
        return h, 0.0 - sums, 0.0 - curv, scale
    uu, xi, du_int = family.moments(v, al, mass)
    if du_int is None:
        du_int = _times(mass, np.reshape(_mat(du), uu.shape))
    lift = al.lift[:, None]
    dxi = du_int + lift[:, :, None] * uu
    if al.any_zero:
        xi = np.where(al.zero[:, None], 0.0, xi)
        dxi = np.where(al.zero[:, None, None], 0.0, dxi)
    return h, lift * (xi - sums), lift[:, :, None] * (dxi - curv), scale


def _newton_step(grad, hess):
    """(Newton step, finite, pd) per row from the Hessian's eigen pairs in
    closed form, each to its own digits however H is scaled, as LAPACK's
    dlaev2 takes them: H itself for one parameter; for [[a, b], [b, c]],
    with m, h = (a +- c)/2 and r = hypot(h, b), m +- r larger in magnitude,
    det H over it, and eigenvectors (1, tan) of m + sign(h) r and (-tan, 1),
    tan = b/(h + sign(h) r). Off pd each eigenvalue becomes max(|lambda|,
    1e-8 max|lambda|), a descent step; pd marks plain Newton steps. finite
    is False where grad or H is not finite or H is 0 (meaningless steps)."""
    finite = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
    if not finite.all():
        hess = np.where(finite[:, None, None], hess, np.eye(grad.shape[1]))
    if grad.shape[1] == 1:
        finite &= hess[:, 0, 0] != 0.0
        return grad / np.abs(hess[:, 0]), finite, finite & (hess[:, 0, 0] > 0.0)
    a, b, c = hess[:, 0, 0], hess[:, 1, 0], hess[:, 1, 1]
    half, mid = 0.5 * a - 0.5 * c, 0.5 * a + 0.5 * c
    radius = np.hypot(half, b)
    big = mid + np.copysign(radius, mid)
    small = a / big * c - b / big * b  # |a|, |b|, |c| <= |big|: no overflow
    same = np.signbit(half) == np.signbit(mid)  # one: on half's side of mid
    one, two, top = np.where(same, big, small), np.where(same, small, big), np.abs(big)
    finite &= top > 0.0
    pd = finite & (one > 0.0) & (two > 0.0)
    if not pd.all():
        one, two = (np.where(pd, lam, np.maximum(np.abs(lam), 1e-8 * top)) for lam in (one, two))
    turn = half + np.copysign(radius, half)
    tan = b / np.where(turn == 0.0, 1.0, turn)  # turn = 0 only where H = a I
    norm = 1.0 + tan * tan
    along_one = (grad[:, 0] + tan * grad[:, 1]) / (norm * one)
    along_two = (grad[:, 1] - tan * grad[:, 0]) / (norm * two)
    step = np.empty_like(grad)
    step[:, 0], step[:, 1] = along_one - tan * along_two, tan * along_one + along_two
    return step, finite, pd


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

    The terms of alpha alone (_AlphaTerms) go with the live rows' state
    and data, gathered again only when a row leaves; an evaluation takes
    them as they are when every live row steps.
    """
    x = np.atleast_2d(values)
    lnx = np.log(x)
    theta = np.array(starts, dtype=float)
    m = theta.shape[0]
    solved = np.zeros(m, dtype=bool)
    evals = np.ones(m, dtype=int)
    al = _AlphaTerms(alphas)
    own = x.shape[0] > 1  # one row of values per row
    with np.errstate(all="ignore"):
        h, grad, hess, scale = _weighted_terms(family, al, x, lnx, weights, theta)
        step, keep, pd = _newton_step(grad, hess)
        # the live rows' ids, points, evaluation counts and halvings
        ids, point, count = np.arange(m), theta.copy(), evals.copy()
        halvings = np.zeros(m, dtype=int)

        def leave(keep):
            """Write out the rows not kept and gather the others."""
            nonlocal ids, point, count, h, scale, step, pd, halvings, weights, x, lnx, al
            gone = ~keep
            theta[ids[gone]], evals[ids[gone]] = point[gone], count[gone]
            ids, point, count, h, scale, step, pd, halvings, weights = (
                a[keep] for a in (ids, point, count, h, scale, step, pd, halvings, weights)
            )
            if own:
                x, lnx = x[keep], lnx[keep]
            al = al.rows(keep)
            return ids.size > 0

        if not keep.all() and not leave(keep):
            return theta, solved, evals
        for _ in range(_NEWTON_CAP):
            done = pd & (np.abs(step).max(axis=1) <= _NEWTON_RTOL * np.abs(point).max(axis=1))
            if done.any():
                point[done] -= step[done]
                solved[ids[done]] = True
                if not leave(~done):
                    break
            trial = point - np.ldexp(step, -halvings[:, None])
            down = np.isfinite(trial).all(axis=1)
            if family.shaped:
                down &= trial[:, 0] > _shape_floor(al.alpha)
            every = down.all()
            sel = slice(None) if every else down  # a view, not a copy, when every row steps
            h_t, grad, hess, scale_t = _weighted_terms(
                family,
                al if every else al.rows(down),
                *((x[sel], lnx[sel]) if own else (x, lnx)),
                weights[sel],
                trial[sel],
            )
            count += down
            lower = h_t <= h[sel] + 1e-12 * scale[sel]
            if every and lower.all():
                point, h, scale = trial, h_t, scale_t
                step, keep, pd = _newton_step(grad, hess)
                halvings = np.zeros_like(halvings)
            else:
                down[down] = lower
                new_step, ok, new_pd = _newton_step(grad[lower], hess[lower])
                point[down] = trial[down]
                h[down], scale[down], step[down], pd[down] = (
                    h_t[lower], scale_t[lower], new_step, new_pd
                )
                halvings = np.where(down, 0, halvings + 1)
                keep = halvings <= _NEWTON_HALVINGS
                keep[down] = ok
            if not keep.all() and not leave(keep):
                break
        else:
            theta[ids], evals[ids] = point, count
    return theta, solved, evals


def _one_step_starts(family, alphas, xs, theta):
    """One Newton step of each leave-one-out objective of xs (n,) off its
    fit, row i k + j holding out xs[i] at alphas[j] (k,) from theta[j]:
    the objective is linear in the weights, so its gradient and Hessian
    are (n T_j - T_ij)/(n - 1), T_j those of all xs at weight 1/n, T_ij
    those of xs[i] alone. A row keeps theta[j] where the step is not pd,
    or the point not finite, outside the parameter space or the floor."""
    n, k = xs.size, len(alphas)
    alphas, lnx = np.asarray(alphas, dtype=float), np.log(xs)
    fits = np.reshape(theta, (k, family.param_count))
    al, each = _AlphaTerms(alphas), np.tile(np.arange(k), n)
    with np.errstate(all="ignore"):
        whole = _weighted_terms(family, al, xs[None], lnx[None], np.full((k, n), 1.0 / n), fits)
        fits = fits[each]
        x_i, lnx_i = np.repeat([xs, lnx], k, axis=1)[:, :, None]
        one = _weighted_terms(family, al.rows(each), x_i, lnx_i, np.ones((n * k, 1)), fits)
        grad, hess = ((n * w[each] - w_i) / (n - 1) for w, w_i in zip(whole[1:3], one[1:3]))
        step, _, pd = _newton_step(grad, hess)
        start = fits - step
        ok = pd & np.isfinite(start).all(axis=1) & ((start > 0.0) | ~_positive(family)).all(axis=1)
        if family.shaped:
            ok &= start[:, 0] > _shape_floor(alphas[each])
    return np.where(ok[:, None], start, fits)


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
    if not all(_checked_alpha(alpha) <= 1.0 for alpha in alphas):
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
    raises there, by one _solve_rows call with weight 1/n per value and
    one _h_rows call for the objectives."""
    n = vals.size
    theta, solved, evals = _solve_rows(
        family,
        alphas,
        len(alphas),
        n,
        lambda rows: (vals, np.full((rows.size, n), 1.0 / n)),
        starts,
    )
    hs = _h_rows(family, _AlphaTerms(alphas), vals, theta)
    out = []
    for alpha, row, h_val, converged, count in zip(
        alphas, theta, hs.tolist(), solved.tolist(), evals.tolist()
    ):
        try:
            theta_hat = ParamVector(family, tuple(row))
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

    The package's own alpha search and model selection fit through
    fit_alphas; `warm_start` stays as the per-replicate reference route
    that the row-solver tests hold every batched refit to.
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
    alphas = [_checked_alpha(alpha) for alpha in alphas]
    vals = _checked_values(family, alphas, sample)
    return _fit_rows(family, alphas, vals, family.start(vals, alphas))
