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
    _inside,
    _mat,
    _shape_floor,
    _times,
    _vec,
    check_dpd_valid,
)

__all__ = ["FitResult", "objective_h", "v_alpha", "estimating_residual", "fit", "fit_alphas"]


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


def _sample_terms(family, theta, alpha, sample):
    """The kernel, _weighted_terms, at the one point theta and weight 1/n
    per value of the sample, after the checks of theta and alpha."""
    _check_family(family, theta)
    check_dpd_valid(theta, alpha)
    x = _sample_values(sample)[None]
    with np.errstate(all="ignore"):
        return _weighted_terms(family, alpha, x, np.log(x), 1.0 / x.size, np.array([theta.values]))


def objective_h(family, theta, alpha, sample):
    """Empirical divergence H: the mean of the per-observation terms
    v_alpha, reduced as M - (1 + 1/alpha) sum_j f_j^alpha / n; the
    kernel's H at weight 1/n.

    At alpha = 0 this is the mean negative log-likelihood, +inf where a
    density underflows to 0.
    """
    return float(_sample_terms(family, theta, alpha, sample)[0][0])


def v_alpha(p, alpha, x):
    """Per-observation divergence term.

    For alpha > 0 this is M(theta) - (1 + 1/alpha) f_theta(x)^alpha; the
    alpha = 0 branch is the negative log likelihood. The two branches
    differ by an additive constant by construction, so alpha = 0 is a
    genuinely separate case, not a limit. The kernel's H over one
    observation per row at weight 1.
    """
    check_dpd_valid(p, alpha)
    x = _check_x(x)
    col, theta = x.reshape(-1, 1), np.tile(p.values, (x.size, 1))
    with np.errstate(all="ignore"):
        h = _weighted_terms(p.family, np.full(x.size, alpha), col, np.log(col), 1.0, theta)[0]
    return h.reshape(x.shape)[()]  # [()]: a scalar for a scalar x


def estimating_residual(family, theta, alpha, sample):
    """U_n(theta): weighted mean score minus its model expectation, that
    is -grad H / (1 + alpha), from the kernel at weight 1/n. Vanishes at
    the estimate.
    """
    return -_sample_terms(family, theta, alpha, sample)[1][0] / (1.0 + alpha)


# --- batched Newton on weighted objectives ------------------------------------

# Above the most evaluations any solved row needs: 43 in the test suite
# (a gamma held-out row at alpha = 0.55 of shape-0.15 data, whose optimum
# lies far from its full-sample fit), 13 on the benchmark inputs (a
# held-out row of tune).
_NEWTON_CAP = 50
# 2^-30 < 1e-8: halving can undo the eigenvalue floor's amplification
# of a step along a direction of negative curvature.
_NEWTON_HALVINGS = 30
_NEWTON_RTOL = 1e-13


# The Hessian entries summed: its upper triangle, by parameter count.
_UPPER = {p: tuple((i, j) for i in range(p) for j in range(i, p)) for p in (1, 2)}


def _weighted_terms(family, alphas, x, lnx, weights, theta):
    """The one reduction of the objective: H = sum_j weights[r, j]
    v_alpha(x[r, j]), its gradient and Hessian, and H's rounding scale, at
    each row of theta (m, p) at alpha = alphas[r], alphas (m,) or one
    float, whose _AlphaTerms it takes once.

    x and lnx = log x are one row (1, n) shared by every row of theta or
    one row each (m, n), and each row of weights (m, n), or what
    broadcasts to it, sums to one. With wg_j = weights_j f_j^alpha and
    the mass M = integral of f^(1+alpha), H = M - (1 + 1/alpha) sum_j
    wg_j and its scale |M| + (1 + 1/alpha) sum_j wg_j. H's gradient is
    (1+alpha)(xi - sum_j wg_j u_j) and its Hessian (1+alpha)[dxi - sum_j
    wg_j (alpha u_j u_j' + du_j)], with xi = integral of u f^(1+alpha)
    and dxi = integral of du f^(1+alpha) + (1+alpha) integral of u u'
    f^(1+alpha); one family.tilted call gives M and the moments under
    f^(1+alpha)/M, each integral of g f^(1+alpha) being M E[g].

    At alpha = 0, H is the negative log-likelihood -sum_j weights_j ln
    f_j over the positively weighted values, NaN rather than -inf (a ln f
    of +inf or NaN among them), and its scale sum_j |weights_j ln f_j|.
    Such a row has wg = weights exactly (NaN where ln f is not finite),
    so the same gradient and Hessian are Newton on it once xi and dxi are
    taken as 0, which their closed forms give only up to rounding, and
    its alpha u u' sum as 0, which 0 times an overflowed sum is not: the
    alpha = 0 rows of any batch, a batch all at alpha = 0 included, are
    masked out of M, xi, dxi and those sums, so they read only terms.
    family.terms gives ln f, u and du once; a du entry constant in x
    multiplies sum_j wg_j and is its own E[du]; only the Hessian's upper
    triangle is summed.

    Sums run along contiguous rows of (m, n) arrays, so no row's result
    depends on its batch.
    """
    al = _AlphaTerms(alphas)
    lnf, u, du = family.terms(tuple(theta.T[:, :, None]), x, lnx)
    wg = weights * np.exp(al.col * lnf)
    mass, e_uu, e_u, e_du = family.tilted(tuple(theta.T), al)
    total = wg.sum(axis=1)
    # wg >= 0
    h, scale = mass - al.k * total, np.abs(mass) + al.k * total
    if al.any_zero:
        w, lnf = np.broadcast_to(weights, lnf.shape)[al.zero], lnf[al.zero]
        wl = np.where(w > 0.0, w * lnf, 0.0)
        nll = -wl.sum(axis=1)
        h[al.zero], scale[al.zero] = np.where(nll > -np.inf, nll, np.nan), np.abs(wl).sum(axis=1)
    wu = [wg * uq for uq in u]
    sums = _vec([wuq.sum(axis=1) for wuq in wu])
    curv = np.empty((theta.shape[0], len(u), len(u)))
    for i, j in _UPPER[len(u)]:
        d = du[i][j]
        entry = total * d[:, 0] if np.shape(d)[-1] == 1 else (wg * d).sum(axis=1)
        uu = al.alpha * (wu[i] * u[j]).sum(axis=1)
        curv[:, i, j] = curv[:, j, i] = entry + (np.where(al.zero, 0.0, uu) if al.any_zero else uu)
    if e_du is None:
        e_du = np.reshape(_mat(du), e_uu.shape)
    uu, xi, du_int = (_times(mass, moment) for moment in (e_uu, e_u, e_du))
    lift = al.lift[:, None]
    dxi = du_int + lift[:, :, None] * uu
    if al.any_zero:
        xi = np.where(al.zero[:, None], 0.0, xi)
        dxi = np.where(al.zero[:, None, None], 0.0, dxi)
    return h, lift * (xi - sums), lift[:, :, None] * (dxi - curv), scale


def _newton_step(grad, hess):
    """(Newton step, finite, pd, reach) per row from the Hessian's eigen
    pairs in closed form, each to its own digits however H is scaled, as
    LAPACK's dlaev2 takes them: H itself for one parameter; for [[a, b], [b, c]],
    with m, h = (a +- c)/2 and r = hypot(h, b), m +- r larger in magnitude,
    det H over it, and eigenvectors (1, tan) of m + sign(h) r and (-tan, 1),
    tan = b/(h + sign(h) r). Off pd each eigenvalue becomes max(|lambda|,
    1e-8 max|lambda|), a descent step; pd marks plain Newton steps. finite
    is False where grad or H is not finite or H is 0 (meaningless steps).
    reach is the largest diagonal entry of the inverse of the H stepped
    by, sum_k v_ik^2 / lambda_k over its eigenvectors v_k, so that
    |v|inf <= sqrt(reach v'Hv) for every v (Cauchy-Schwarz)."""
    finite = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
    if not finite.all():
        hess = np.where(finite[:, None, None], hess, np.eye(grad.shape[1]))
    if grad.shape[1] == 1:
        finite &= hess[:, 0, 0] != 0.0
        curv = np.abs(hess[:, 0])
        return grad / curv, finite, finite & (hess[:, 0, 0] > 0.0), 1.0 / curv[:, 0]
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
    reach = np.maximum(1.0 / one + tan * tan / two, tan * tan / one + 1.0 / two) / norm
    return step, finite, pd, reach


def _newton_rows(family, alphas, values, weights, starts):
    """Minimize sum_j weights[r, j] v_alpha(theta_r, values[r, j]) with
    alpha = alphas[r] for every row r of weights (m, n), each summing to
    one, by damped Newton from starts[r]; values is one row (n,) shared
    by every row or one row each (m, n). alpha = 0 rows, maximum
    likelihood, are rows like any other.

    Where the Hessian is not positive definite the step is the
    eigenvalue-modified one of _newton_step. A step to a point not
    _inside the parameter space at the row's alpha, refused before H is
    taken there, or that does not lower H (up to rounding) is halved, at
    most _NEWTON_HALVINGS times in a row. Returns (theta (m, p),
    solved (m,), evaluations (m,)): row r is solved, taking its next
    full Newton step at a positive definite Hessian H, when that step,
    or the step predicted to follow it, falls below _NEWTON_RTOL of
    theta (largest entries) within _NEWTON_CAP steps; evaluations
    counts the points at which its H, gradient and Hessian were taken.
    A row whose gradient or Hessian is not finite, or that runs out of
    halvings, stops where it is, unsolved.

    The prediction is the a-posteriori estimate of Deuflhard's Newton
    Methods for Nonlinear Problems (2004) from the contraction of
    successive steps, in H's norm, where it does not depend on the
    parameters' units. The Newton decrement dec = grad . step is the
    step's squared norm, and dec over prev, that of the step that
    brought the row to its point, is the squared contraction, so the
    next step's norm is about dec / prev sqrt(dec) and its largest entry
    at most sqrt(reach) times that (_newton_step). Only a full step at a
    pd Hessian gives prev; with none, at the start or after a halved
    step or one off pd, prev is 0 and predicts nothing.

    The rows' alphas go with the live rows' state and data, gathered
    again only when a row leaves; each kernel call takes the terms of
    alpha alone (_AlphaTerms) from the alphas of the rows it evaluates.
    """
    x = np.atleast_2d(values)
    lnx = np.log(x)
    theta = np.array(starts, dtype=float)
    m = theta.shape[0]
    solved = np.zeros(m, dtype=bool)
    evals = np.ones(m, dtype=int)
    alphas = np.asarray(alphas, dtype=float)
    own = x.shape[0] > 1  # one row of values per row
    with np.errstate(all="ignore"):
        h, grad, hess, scale = _weighted_terms(family, alphas, x, lnx, weights, theta)
        step, keep, pd, reach = _newton_step(grad, hess)
        # the live rows' ids, points, evaluation counts and halvings, and
        # their Newton decrements: dec of the step, prev of the full pd step
        # that brought the row to its point, else 0
        ids, point, count = np.arange(m), theta.copy(), evals.copy()
        halvings = np.zeros(m, dtype=int)
        dec, prev = (grad * step).sum(axis=1), np.zeros(m)

        def leave(keep):
            """Write out the rows not kept and gather the others."""
            nonlocal ids, point, count, h, scale, step, pd, halvings, reach, dec, prev
            nonlocal alphas, weights, x, lnx
            gone = ~keep
            theta[ids[gone]], evals[ids[gone]] = point[gone], count[gone]
            live = (ids, point, count, h, scale, step, pd, halvings, reach, dec, prev, alphas, weights)
            ids, point, count, h, scale, step, pd, halvings, reach, dec, prev, alphas, weights = (
                a[keep] for a in live
            )
            if own:
                x, lnx = x[keep], lnx[keep]
            return ids.size > 0

        if not keep.all() and not leave(keep):
            return theta, solved, evals
        for _ in range(_NEWTON_CAP):
            size, tol = np.abs(step).max(axis=1), _NEWTON_RTOL * np.abs(point).max(axis=1)
            # the step, or the bound on the next one; prev = 0 gives inf
            done = pd & ((size <= tol) | (dec / prev * np.sqrt(dec * reach) <= tol))
            if done.any():
                point[done] -= step[done]
                solved[ids[done]] = True
                if not leave(~done):
                    break
            trial = point - np.ldexp(step, -halvings[:, None])
            down = _inside(family, trial, alphas)
            every = down.all()
            # a row that does not move goes on while it has a halving left
            keep = halvings < _NEWTON_HALVINGS
            if every or down.any():  # else every row halves, with no evaluation
                sel = slice(None) if every else down  # a view, not a copy, when every row steps
                h_t, grad, hess, scale_t = _weighted_terms(
                    family,
                    alphas[sel],
                    *((x[sel], lnx[sel]) if own else (x, lnx)),
                    weights[sel],
                    trial[sel],
                )
                count += down
                lower = h_t <= h[sel] + 1e-12 * scale[sel]
                down[down] = lower
                # the accepted rows, of those evaluated and of the live: slices when all are
                low, moved = (slice(None), sel) if lower.all() else (lower, down)
                step_t, keep[moved], pd_t, reach_t = _newton_step(grad[low], hess[low])
                prev[moved] = np.where(pd[moved] & (halvings[moved] == 0), dec[moved], 0.0)
                dec[moved] = (grad[low] * step_t).sum(axis=1)
                point[moved] = trial[moved]
                h[moved], scale[moved], step[moved], pd[moved] = h_t[low], scale_t[low], step_t, pd_t
                reach[moved] = reach_t
            halvings = np.where(down, 0, halvings + 1)
            if not keep.all() and not leave(keep):
                break
        else:
            theta[ids], evals[ids] = point, count
    return theta, solved, evals


# Weight entries per Newton batch, which bounds its memory.
_ROW_BUDGET = 1 << 14


def _solve_rows(family, alphas, xs, counts, total, fits):
    """_newton_rows' (theta, solved, evaluations) for the rows that weight
    the values xs (n,) by counts (C, n) / total: row c k + j at alphas[j]
    (k,), started one Newton step of its objective off fits[j] (k, p).
    The objective is linear in the weights, so there its gradient and
    Hessian are sum_i counts[c, i] T_ij / total, T_ij those of xs[i]
    alone at fits[j]: one kernel call for all n k and one einsum over all
    count rows, which casts the counts through its buffers (no (C, n)
    float copy) and sums each row alike in any batch. A row keeps fits[j]
    where the step is not pd or the point not _inside. Each count row
    runs on its support (its nonzero counts' values in sample order, zero
    weight after them up to the widest) where the widest leaves out a
    tenth of xs, else on all of xs. Rows are solved in order, about
    _ROW_BUDGET weight entries (one count row at least) at a time. A
    two-parameter row whose positively weighted values are all equal is
    unsolved, as fit refuses such a sample."""
    n, k, p = xs.size, len(alphas), family.param_count
    alphas, lnx = np.asarray(alphas, dtype=float), np.log(xs)
    fits = np.reshape(np.asarray(fits, dtype=float), (k, p))
    each = np.tile(np.arange(k), n)
    with np.errstate(all="ignore"):
        x_i, lnx_i = np.repeat([xs, lnx], k, axis=1)[:, :, None]
        one = _weighted_terms(family, alphas[each], x_i, lnx_i, np.ones((n * k, 1)), fits[each])
        # (q, n) in C order, einsum being 4x slower on a transposed view: each
        # entry of the k gradients, then of the k Hessians, over the n values
        terms = (np.concatenate([w.reshape(n, -1) for w in one[1:3]], axis=1) / total).T.copy()
        sums = np.einsum("rn,qn->rq", counts, terms)
        grad, hess = sums[:, : k * p].reshape(-1, p), sums[:, k * p :].reshape(-1, p, p)
        alphas, fits = np.tile(alphas, counts.shape[0]), np.tile(fits, (counts.shape[0], 1))
        step, _, pd, _ = _newton_step(grad, hess)
        starts = fits - step
        starts = np.where((pd & _inside(family, starts, alphas))[:, None], starts, fits)
    m = alphas.size
    width = int(np.count_nonzero(counts, axis=1).max())
    own = 10 * width <= 9 * n
    theta, solved, evals = np.empty((m, p)), np.empty(m, dtype=bool), np.empty(m, dtype=int)
    chunk = max(_ROW_BUDGET // ((width if own else n) * k), 1)
    for lo in range(0, counts.shape[0], chunk):
        values, weights = xs, counts[lo : lo + chunk] / total
        if own:
            support = np.argsort(weights == 0.0, axis=1, kind="stable")[:, :width]
            values = np.repeat(xs[support], k, axis=0)
            weights = np.take_along_axis(weights, support, axis=1)
            del support  # not held through the solve
        weights = np.repeat(weights, k, axis=0)
        rows = slice(lo * k, lo * k + weights.shape[0])
        theta[rows], solved[rows], evals[rows] = _newton_rows(
            family, alphas[rows], values, weights, starts[rows]
        )
        if p == 2:
            drawn = weights > 0.0
            top = np.where(drawn, values, -np.inf).max(axis=1)
            solved[rows] &= top > np.where(drawn, values, np.inf).min(axis=1)
    return theta, solved, evals


def _fit_rows(family, alphas, sample, warm_start=None):
    """The one way into a fit: fit's result at each alpha, or the
    DpdError fit raises there. The checks of alpha and the sample raise
    once for the batch; every row starts from warm_start, or else the
    family's start point, a gamma or Weibull shape raised to at least
    its floor plus 0.1; one _newton_rows call, weight 1/n per value, and
    one kernel call at that weight for the objectives, H as objective_h
    takes it, give the results."""
    alphas = [_checked_alpha(alpha) for alpha in alphas]
    if not all(alpha <= 1.0 for alpha in alphas):
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
    if warm_start is None:
        start = family.start(vals)
    else:
        _check_family(family, warm_start)
        start = warm_start.values
    starts = np.tile(np.asarray(start, dtype=float), (len(alphas), 1))
    if family.shaped:
        starts[:, 0] = np.maximum(starts[:, 0], _shape_floor(np.asarray(alphas)) + 0.1)
    n = vals.size
    weights = np.full((len(alphas), 1), 1.0 / n)  # one count row of ones: nothing to lay out
    theta, solved, evals = _newton_rows(family, alphas, vals, weights, starts)
    with np.errstate(all="ignore"):
        hs = _weighted_terms(family, alphas, vals[None], np.log(vals)[None], 1.0 / n, theta)[0]
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
                alpha=alpha,
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

    Minimizes H by damped Newton as the one row of _fit_rows, weight 1/n
    per observation, from `warm_start` when given and from the family's
    moment start otherwise; a gamma or Weibull shape is raised to at
    least its floor plus 0.1, as for every start. `converged` reports
    whether Newton reached rounding at a positive definite Hessian.
    `objective` is H at the returned `theta_hat`, so objective ==
    objective_h(theta_hat).

    Model selection fits through here and the alpha search through
    fit_alphas; `warm_start` stays as the per-replicate reference route
    that the row-solver tests hold every batched refit to.
    """
    (res,) = _fit_rows(family, (alpha,), sample, warm_start)
    if isinstance(res, DpdError):
        raise res
    return res


def fit_alphas(family, alphas, sample):
    """fit(family, alpha, sample) at each alpha of `alphas`, as one Newton
    solve whose row at alpha starts from the family's moment start, a
    gamma or Weibull shape raised to at least its floor plus 0.1 there.

    Each entry is the FitResult fit returns at that alpha, bit for bit,
    or the DpdError fit raises there; a non-converged row warns as its
    fit does. An alpha outside [0, 1], too few values or, for a
    two-parameter family, all values equal raise once for the batch.
    """
    return _fit_rows(family, alphas, sample)
