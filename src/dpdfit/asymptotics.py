"""Sandwich asymptotics for the MDPDE: the J and K matrices, standard
errors, asymptotic relative efficiency tables, and influence functions.

The estimator is asymptotically normal with variance J^-1 K J^-1 where

    J = E[u u' f^alpha],   K = E[u u' f^(2 alpha)] - xi xi',
    xi = E[u f^alpha]      (expectations under the model itself),

equivalently integrals of u u' f^(1+alpha) and friends, all taken in
closed form by families.weighted_moments.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, SingularInformationError
from .dataio import write_rows
from .estimator import dpd_weights
from .families import _check_family, quantile, score, weighted_moments

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


def _invert_spd(mat, what):
    """Inverse of a symmetric positive definite matrix from its
    eigendecomposition V diag(lambda) V'.

    Refuses a matrix with an eigenvalue not finite or not positive
    (eigh gives NaN for a non-finite entry), and warns when the condition
    number passes 1e10.
    """
    lam, vec = np.linalg.eigh(np.asarray(mat, dtype=float))
    if not np.isfinite(lam).all() or lam[0] <= 0.0:
        raise SingularInformationError(f"{what} is not positive definite")
    if lam[-1] > 1e10 * lam[0]:
        warnings.warn(
            f"{what} is ill-conditioned (condition number {lam[-1] / lam[0]:.2e})",
            RuntimeWarning,
        )
    return (vec / lam) @ vec.T


def sandwich(family, theta, alpha):
    """J, K, xi and the sandwich variance J^-1 K J^-1 at theta."""
    _check_family(family, theta)
    _, j_mat, xi = weighted_moments(theta, alpha)
    _, k_raw, _ = weighted_moments(theta, 2.0 * alpha)
    k_mat = k_raw - np.outer(xi, xi)
    j_inv = _invert_spd(j_mat, f"{family.tag} information matrix J")
    avar = j_inv @ k_mat @ j_inv
    return SandwichMatrices(
        family=family,
        theta=theta,
        alpha=float(alpha),
        J=j_mat,
        K=k_mat,
        xi=xi,
        avar=avar,
    )


def asymptotic_se(fit_result):
    """Per-parameter standard errors sqrt(avar_ii / n) at the fitted point."""
    if not fit_result.converged:
        raise FitError("standard errors require a converged fit")
    sw = sandwich(fit_result.family, fit_result.theta_hat, fit_result.alpha)
    diag = np.diag(sw.avar)
    if np.any(diag <= 0):
        raise SingularInformationError("sandwich variance has a nonpositive diagonal")
    return np.sqrt(diag / fit_result.n_obs)


def are(family, theta, alphas=_TABLE_ALPHAS):
    """Asymptotic relative efficiency avar_MLE / avar_MDPDE, per parameter.

    The MLE variance is the alpha = 0 sandwich (J and K both equal the
    Fisher information there). For the exponential the ratio is free of
    lambda; it is computed from the closed forms either way.
    """
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise DomainError("ARE tuning parameters must lie in [0, 1]")
    fisher_diag = np.diag(sandwich(family, theta, 0.0).avar)
    rows = {}
    for a in alphas:
        if a == 0.0:
            rows[0.0] = tuple(1.0 for _ in range(family.param_count))
            continue
        diag = np.diag(sandwich(family, theta, a).avar)
        rows[float(a)] = tuple(fisher_diag / diag)
    return AreTable(family=family, theta=theta, rows=rows)


def influence_function(family, theta0, alpha, y):
    """IF(y) = J^-1 [u(y) f^alpha(y) - xi]; a p-vector per point.

    Accepts a scalar y (returns shape (p,)) or an array (returns
    (len(y), p)). Bounded in y exactly when alpha > 0.
    """
    _check_family(family, theta0)
    _, j_mat, xi = weighted_moments(theta0, alpha)
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
    if alpha <= 0.0:
        raise DomainError("if_supremum requires alpha > 0")
    lo = quantile(theta0, 1e-6)
    hi = quantile(theta0, 1.0 - 1e-6) * 1e6
    grid = np.geomspace(lo, hi, grid_points)
    vals = influence_function(family, theta0, alpha, grid)
    return float(np.max(np.linalg.norm(vals, axis=1)))
