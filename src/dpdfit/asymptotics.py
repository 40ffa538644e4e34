"""Sandwich asymptotics for the MDPDE: the J and K matrices, standard
errors, asymptotic relative efficiency tables, and influence functions.

The estimator is asymptotically normal with variance J^-1 K J^-1 where

    J = E[u u' f^alpha],   K = E[u u' f^(2 alpha)] - xi xi',
    xi = E[u f^alpha]      (expectations under the model itself),

equivalently integrals of u u' f^(1+alpha) and friends, all taken in
closed form by families._moment_rows, weighted_moments over rows.

_sandwich_rows is the one sandwich: J, K, xi and avar at one alpha per
parameter point, from one moments call at the alphas and one at twice
them and one batched inversion of J. sandwich, asymptotic_se and are
are its one-point and one-table cases, and selection scores every RIC
of an alpha batch with one call.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, SingularInformationError
from .dataio import write_rows
from .estimator import dpd_weights
from .families import _check_family, _checked_alpha, _moment_rows, quantile, score

__all__ = [
    "SandwichMatrices",
    "AreTable",
    "sandwich",
    "asymptotic_se",
    "are",
    "influence_function",
    "if_supremum",
]

_TABLE_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0)


@dataclass(frozen=True)
class SandwichMatrices:
    family: object
    theta: object
    alpha: float
    J: np.ndarray
    K: np.ndarray
    xi: np.ndarray
    avar: np.ndarray


@dataclass(frozen=True)
class AreTable:
    """Per-parameter asymptotic relative efficiencies, one row per alpha."""

    family: object
    theta: object
    rows: dict

    def to_csv(self, path_or_fp):
        write_rows(path_or_fp, ["alpha", "param", "are"], (
            [f"{alpha:g}", name, f"{value:.6f}"]
            for alpha in sorted(self.rows)
            for name, value in zip(self.family.param_names, self.rows[alpha])
        ))


def _invert_spd_rows(mats, what):
    """The inverse of each symmetric positive definite matrix of mats
    (m, p, p) from its eigendecomposition V diag(lambda) V', with errors
    (m,): None, or the SingularInformationError of a matrix with an
    eigenvalue not finite or not positive (eigh gives NaN for a
    non-finite entry), whose inverse is then meaningless. Warns, matrix
    by matrix, when the condition number passes 1e10.
    """
    lam, vec = np.linalg.eigh(mats)
    errors = [None] * len(lam)
    # eigenvalues come in ascending order
    for r, row in enumerate(lam.tolist()):
        low, high = row[0], row[-1]
        if not (low > 0.0 and high < math.inf):
            errors[r] = SingularInformationError(f"{what} is not positive definite")
        elif high > 1e10 * low:
            warnings.warn(
                f"{what} is ill-conditioned (condition number {high / low:.2e})", RuntimeWarning
            )
    if any(errors):
        lam = np.where(np.array([e is not None for e in errors])[:, None], 1.0, lam)
    return (vec / lam[:, None, :]) @ vec.transpose(0, 2, 1), errors


def _invert_spd(mat, what):
    """The one-matrix case of _invert_spd_rows: the inverse, or its error raised."""
    (inv,), (error,) = _invert_spd_rows(np.asarray(mat, dtype=float)[None], what)
    if error is not None:
        raise error
    return inv


def _sandwich_rows(family, theta, alphas):
    """J, K, xi and the sandwich variance avar = J^-1 K J^-1 at each row of
    theta (m, p), row r at alphas[r] (m,), with errors (m,): None, or the
    DpdError that row's sandwich raises, whose entries are then
    meaningless: check_dpd_valid's at alpha, then at 2 alpha, or J's
    refusal by _invert_spd_rows. One _moment_rows call at the alphas, one
    at twice them and one batched inversion; each row's numbers are those
    it gets alone.
    """
    _, j_mat, xi, errors = _moment_rows(family, theta, alphas)
    _, k_raw, _, doubled = _moment_rows(family, theta, 2.0 * alphas)
    refused = [e or d for e, d in zip(errors, doubled)]
    if any(refused):
        j_mat = np.where(np.array([e is not None for e in refused])[:, None, None], np.nan, j_mat)
    j_inv, singular = _invert_spd_rows(j_mat, f"{family.tag} information matrix J")
    with np.errstate(all="ignore"):
        k_mat = k_raw - xi[:, :, None] * xi[:, None, :]
        avar = j_inv @ k_mat @ j_inv
    return j_mat, k_mat, xi, avar, [e or s for e, s in zip(refused, singular)]


def sandwich(family, theta, alpha):
    """J, K, xi and the sandwich variance J^-1 K J^-1 at theta: the
    one-point case of _sandwich_rows."""
    _check_family(family, theta)
    alpha = _checked_alpha(alpha)
    (j_mat,), (k_mat,), (xi,), (avar,), (error,) = _sandwich_rows(
        family, np.array([theta.values]), np.array([alpha])
    )
    if error is not None:
        raise error
    return SandwichMatrices(
        family=family, theta=theta, alpha=alpha, J=j_mat, K=k_mat, xi=xi, avar=avar
    )


def _standard_errors(fit_result, sw):
    """asymptotic_se, from sw when the fit's sandwich has been taken."""
    if not fit_result.converged:
        raise FitError("standard errors require a converged fit")
    if sw is None:
        sw = sandwich(fit_result.family, fit_result.theta_hat, fit_result.alpha)
    diag = np.diag(sw.avar)
    if np.any(diag <= 0):
        raise SingularInformationError("sandwich variance has a nonpositive diagonal")
    return np.sqrt(diag / fit_result.n_obs)


def asymptotic_se(fit_result):
    """Per-parameter standard errors sqrt(avar_ii / n) at the fitted point."""
    return _standard_errors(fit_result, None)


def are(family, theta, alphas=_TABLE_ALPHAS):
    """Asymptotic relative efficiency avar_MLE / avar_MDPDE, per parameter.

    The MLE variance is the alpha = 0 sandwich (J and K both equal the
    Fisher information there). For the exponential the ratio is free of
    lambda; it is computed from the closed forms either way. The whole
    table is one _sandwich_rows call, whose first row is alpha = 0; the
    first error in table order is raised.
    """
    for a in alphas:
        if _checked_alpha(a) > 1.0:
            raise DomainError("ARE tuning parameters must lie in [0, 1]")
    _check_family(family, theta)
    table = np.array([0.0, *alphas], dtype=float)
    _, _, _, avar, errors = _sandwich_rows(family, np.tile(theta.values, (table.size, 1)), table)
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        raise error
    fisher, *diags = np.diagonal(avar, axis1=1, axis2=2)
    rows = {
        a: tuple(1.0 for _ in range(family.param_count)) if a == 0.0 else tuple(fisher / diag)
        for a, diag in zip(table[1:].tolist(), diags)
    }
    return AreTable(family=family, theta=theta, rows=rows)


def influence_function(family, theta0, alpha, y):
    """IF(y) = J^-1 [u(y) f^alpha(y) - xi]; a p-vector per point.

    Accepts a scalar y (returns shape (p,)) or an array (returns
    (len(y), p)). Bounded in y exactly when alpha > 0.
    """
    _check_family(family, theta0)
    _, (j_mat,), (xi,), (error,) = _moment_rows(
        family, np.array([theta0.values]), np.array([_checked_alpha(alpha)])
    )
    if error is not None:
        raise error
    j_inv = _invert_spd(j_mat, f"{family.tag} information matrix J")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    u = score(theta0, y_arr)
    w = dpd_weights(family, theta0, alpha, y_arr)
    vals = (u * w[:, None] - xi) @ j_inv.T
    return vals[0] if np.isscalar(y) or np.asarray(y).ndim == 0 else vals


def if_supremum(family, theta0, alpha, grid_points=2000):
    """Numerical sup of the influence-function norm over a wide y grid.

    The grid is geometric from the 1e-6 quantile to 1e6 times the
    (1 - 1e-6) quantile, so the value is finite by construction; for
    alpha > 0 it stabilizes under refinement because the true IF is
    bounded.
    """
    if _checked_alpha(alpha) <= 0.0:
        raise DomainError("if_supremum requires alpha > 0")
    if not (isinstance(grid_points, numbers.Integral) and grid_points >= 2):
        raise DomainError(f"if_supremum needs an integer grid_points >= 2, got {grid_points!r}")
    lo = quantile(theta0, 1e-6)
    hi = quantile(theta0, 1.0 - 1e-6) * 1e6
    grid = np.geomspace(lo, hi, grid_points)
    vals = influence_function(family, theta0, alpha, grid)
    return float(np.max(np.linalg.norm(vals, axis=1)))
