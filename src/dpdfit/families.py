"""The four positive-support model families: exponential, gamma,
lognormal, Weibull.

Gamma and Weibull are parameterized by shape a and RATE b, so
Gamma(1, b) and Weibull(1, b) both coincide with Exponential(b).
Densities are evaluated in log space and exponentiated at the end;
x = 0 is outside the support of every family here.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, DpdValidityError
from .numerics import invert_cdf, reg_incomplete_gamma_lower, std_normal_cdf

__all__ = [
    "Family",
    "ParamVector",
    "EXPONENTIAL",
    "GAMMA",
    "LOGNORMAL",
    "WEIBULL",
    "FAMILIES",
    "check_dpd_valid",
    "log_density",
    "density",
    "cdf",
    "quantile",
    "score",
    "dpd_mass_integral",
    "weighted_moments",
    "v_alpha",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Family:
    tag: str
    param_count: int
    param_names: tuple

    def __str__(self):
        return self.tag


EXPONENTIAL = Family("exponential", 1, ("rate",))
GAMMA = Family("gamma", 2, ("shape", "rate"))
LOGNORMAL = Family("lognormal", 2, ("log_mean", "log_sd"))
WEIBULL = Family("weibull", 2, ("shape", "rate"))

# Canonical ordering, also the model-selection tie-break order.
FAMILIES = {f.tag: f for f in (EXPONENTIAL, GAMMA, LOGNORMAL, WEIBULL)}


@dataclass(frozen=True)
class ParamVector:
    """A family together with a concrete parameter point.

    All parameters must be strictly positive except the lognormal
    log-mean, which is a free real.
    """

    family: Family
    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.family.param_count:
            raise DomainError(
                f"{self.family.tag} takes {self.family.param_count} parameters, "
                f"got {len(vals)}"
            )
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("parameters must be finite")
        for name, v in zip(self.family.param_names, vals):
            if name != "log_mean" and v <= 0.0:
                raise DomainError(f"{self.family.tag} {name} must be positive, got {v}")

    def __iter__(self):
        return iter(self.values)


def check_dpd_valid(p, alpha):
    """Gamma/Weibull shape must exceed alpha/(1+alpha) for the DPD terms to exist."""
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    if p.family in (GAMMA, WEIBULL) and p.values[0] <= alpha / (1.0 + alpha):
        raise DpdValidityError(
            f"{p.family.tag} shape {p.values[0]:g} <= alpha/(1+alpha) "
            f"= {alpha / (1.0 + alpha):g}; DPD integrals do not exist"
        )


def _check_x(x):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0 or not np.all(arr > 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("x must be strictly positive and finite")
    return arr


def _logf(fam, vals, x, lnx):
    """ln f on pre-validated inputs; lnx = log(x) precomputed by the caller.

    The single source of the density formulas; both the public wrapper
    and the estimator's hot loop go through here.
    """
    if fam is EXPONENTIAL:
        lam = vals[0]
        return math.log(lam) - lam * x
    if fam is GAMMA:
        a, b = vals
        return a * math.log(b) + (a - 1.0) * lnx - b * x - special.gammaln(a)
    if fam is LOGNORMAL:
        mu, sigma = vals
        z = (lnx - mu) / sigma
        return -_LOG_SQRT_2PI - math.log(sigma) - lnx - 0.5 * z * z
    if fam is WEIBULL:
        a, b = vals
        lbx = math.log(b) + lnx
        return math.log(a) + math.log(b) + (a - 1.0) * lbx - np.exp(a * lbx)
    raise DomainError(f"unknown family {fam!r}")


def log_density(p, x):
    """ln f_theta(x), vectorized over x."""
    x = _check_x(x)
    return _logf(p.family, p.values, x, np.log(x))


def density(p, x):
    return np.exp(log_density(p, x))


def cdf(p, x):
    x = _check_x(x)
    fam = p.family
    if fam is EXPONENTIAL:
        (lam,) = p.values
        return -np.expm1(-lam * x)
    if fam is GAMMA:
        a, b = p.values
        return reg_incomplete_gamma_lower(a, b * x)
    if fam is LOGNORMAL:
        mu, sigma = p.values
        return std_normal_cdf((np.log(x) - mu) / sigma)
    if fam is WEIBULL:
        a, b = p.values
        return -np.expm1(-((b * x) ** a))
    raise DomainError(f"unknown family {fam!r}")


def quantile(p, q):
    """Inverse CDF, vectorized over q.

    Closed forms except gamma, which is inverted numerically one
    probability at a time.
    """
    arr = np.asarray(q, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile requires q in (0, 1)")
    fam = p.family
    if fam is EXPONENTIAL:
        (lam,) = p.values
        out = -np.log1p(-arr) / lam
    elif fam is GAMMA:
        flat = [invert_cdf(lambda x: float(cdf(p, x)), float(v)) for v in arr.ravel()]
        out = np.asarray(flat).reshape(arr.shape)
    elif fam is LOGNORMAL:
        mu, sigma = p.values
        out = np.exp(mu + sigma * special.ndtri(arr))
    elif fam is WEIBULL:
        a, b = p.values
        out = (-np.log1p(-arr)) ** (1.0 / a) / b
    else:
        raise DomainError(f"unknown family {fam!r}")
    return float(out) if np.ndim(q) == 0 else out


def score(p, x):
    """Gradient of ln f_theta(x) in theta; shape x.shape + (param_count,)."""
    x = _check_x(x)
    fam = p.family
    if fam is EXPONENTIAL:
        (lam,) = p.values
        return np.asarray(1.0 / lam - x)[..., None]
    if fam is GAMMA:
        a, b = p.values
        u_a = math.log(b) - special.digamma(a) + np.log(x)
        u_b = a / b - x
        return np.stack(np.broadcast_arrays(u_a, u_b), axis=-1)
    if fam is LOGNORMAL:
        mu, sigma = p.values
        d = np.log(x) - mu
        u_mu = d / sigma**2
        u_sigma = (d * d - sigma**2) / sigma**3
        return np.stack(np.broadcast_arrays(u_mu, u_sigma), axis=-1)
    if fam is WEIBULL:
        a, b = p.values
        t = (b * x) ** a
        lbx = np.log(b * x)
        u_a = 1.0 / a + lbx * (1.0 - t)
        u_b = (a / b) * (1.0 - t)
        return np.stack(np.broadcast_arrays(u_a, u_b), axis=-1)
    raise DomainError(f"unknown family {fam!r}")


def _mass(fam, vals, alpha):
    """Mass term core on pre-validated inputs; may raise OverflowError."""
    if fam is EXPONENTIAL:
        return math.exp(alpha * math.log(vals[0]) - math.log1p(alpha))
    if fam is GAMMA:
        a, b = vals
        aa = (a - 1.0) * (1.0 + alpha) + 1.0
        return math.exp(
            special.gammaln(aa)
            + alpha * math.log(b)
            - (1.0 + alpha) * special.gammaln(a)
            - aa * math.log1p(alpha)
        )
    if fam is LOGNORMAL:
        mu, sigma = vals
        return math.exp(
            -0.5 * math.log1p(alpha)
            - alpha * (_LOG_SQRT_2PI + math.log(sigma))
            - alpha * mu
            + alpha**2 * sigma**2 / (2.0 * (1.0 + alpha))
        )
    if fam is WEIBULL:
        a, b = vals
        kap = (a - 1.0) * alpha / a
        return math.exp(
            alpha * (math.log(a) + math.log(b))
            + special.gammaln(1.0 + kap)
            - (1.0 + kap) * math.log1p(alpha)
        )
    raise DomainError(f"unknown family {fam!r}")


def dpd_mass_integral(p, alpha):
    """Closed form of the mass term M(theta) = integral of f_theta^(1+alpha)."""
    check_dpd_valid(p, alpha)
    if alpha == 0.0:
        return 1.0
    return _mass(p.family, p.values, alpha)


def weighted_moments(p, c):
    """Closed forms of (M, integral of u u' f^(1+c), integral of u f^(1+c)).

    f^(1+c)/M is the density of a known law, so each integral is M times
    a score moment under that law: exponential with rate b(1+c); gamma
    with shape a + c(a-1) and rate b(1+c); for the lognormal, ln x - mu
    is N(-c sigma^2/(1+c), sigma^2/(1+c)); for the Weibull, (bx)^a is
    gamma with shape 1 + c(a-1)/a and rate 1+c. At c = 0 this is
    (1, Fisher information, 0). J, K and xi of the sandwich are built
    from these (Basu, Harris, Hjort & Jones 1998).
    """
    mass = dpd_mass_integral(p, c)
    fam = p.family
    if fam is EXPONENTIAL:
        # u = 1/lambda - x
        rate = p.values[0] * (1.0 + c)
        mean = np.array([c / rate])
        second = np.array([[(1.0 + c * c) / rate**2]])
    elif fam is GAMMA:
        # u = (ln x + ln b - digamma(a), a/b - x)
        a, b = p.values
        shape, rate = a + c * (a - 1.0), b * (1.0 + c)
        mean = np.array(
            [special.digamma(shape) - special.digamma(a) - math.log1p(c), c / rate]
        )
        cov = np.array(
            [[special.polygamma(1, shape), -1.0 / rate], [-1.0 / rate, shape / rate**2]]
        )
        second = cov + np.outer(mean, mean)
    elif fam is LOGNORMAL:
        # u = (w, (w^2 - sigma^2)/sigma) / sigma^2 with w = ln x - mu ~ N(m, s2)
        sigma = p.values[1]
        m, s2 = -c * sigma**2 / (1.0 + c), sigma**2 / (1.0 + c)
        mean = np.array([m, m * (m + 1.0) / sigma]) / sigma**2
        cov_ms = 2.0 * m * s2 / sigma
        cov = np.array(
            [[s2, cov_ms], [cov_ms, 2.0 * s2 * (s2 + 2.0 * m * m) / sigma**2]]
        ) / sigma**4
        second = cov + np.outer(mean, mean)
    elif fam is WEIBULL:
        # u = ((1 + L (1 - t))/a, (a/b)(1 - t)) with t = (bx)^a, L = ln t;
        # E[t^j] = r_j, E[t^j L] = r_j d_j, E[t^j L^2] = r_j q_j
        a, b = p.values
        shape, rate = 1.0 + c * (a - 1.0) / a, 1.0 + c
        r = np.array([1.0, shape / rate, shape * (shape + 1.0) / rate**2])
        d = special.digamma(shape + np.arange(3.0)) - math.log(rate)
        q = d * d + special.polygamma(1, shape + np.arange(3.0))
        el, eq = r * d, r * q
        tail = c / (a * rate)  # 1 - E[t]
        mean = np.array([(1.0 + el[0] - el[1]) / a, a / b * tail])
        s_aa = (1.0 + 2.0 * (el[0] - el[1]) + eq[0] - 2.0 * eq[1] + eq[2]) / a**2
        s_ab = (tail + el[0] - 2.0 * el[1] + el[2]) / b
        s_bb = (a / b) ** 2 * (shape / rate**2 + tail * tail)
        second = np.array([[s_aa, s_ab], [s_ab, s_bb]])
    else:
        raise DomainError(f"unknown family {fam!r}")
    return mass, mass * second, mass * mean


def v_alpha(p, alpha, x):
    """Per-observation divergence term.

    For alpha > 0 this is M(theta) - (1 + 1/alpha) f_theta(x)^alpha; the
    alpha = 0 branch is the negative log likelihood. The two branches
    differ by an additive constant by construction, so alpha = 0 is a
    genuinely separate case, not a limit.
    """
    if alpha == 0.0:
        return -log_density(p, x)
    mass = dpd_mass_integral(p, alpha)
    return mass - (1.0 + 1.0 / alpha) * np.exp(alpha * log_density(p, x))
