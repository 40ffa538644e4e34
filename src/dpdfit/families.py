"""The four positive-support model families: exponential, gamma,
lognormal, Weibull.

Gamma and Weibull are parameterized by shape a and RATE b, so
Gamma(1, b) and Weibull(1, b) both coincide with Exponential(b).
Densities are evaluated in log space and exponentiated at the end;
x = 0 is outside the support of every family here.

Each family is one entry of a table: a Family carries the functions
that define it, and the public functions below only dispatch to them.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError, DpdError, DpdValidityError, FitError
from .numerics import invert_cdf

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
    "dpd_weights",
    "density",
    "cdf",
    "quantile",
    "score",
    "dpd_mass_integral",
    "weighted_moments",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _entry(default=None):
    return field(default=default, compare=False, repr=False)


def _vec(parts):
    """Components stacked on a last axis; leading axes are broadcast."""
    out = np.empty(np.broadcast(*parts).shape + (len(parts),))
    for i, part in enumerate(parts):
        out[..., i] = part
    return out


def _mat(rows):
    """Rows of entries stacked into (..., p, p)."""
    out = np.empty(np.broadcast(*(e for row in rows for e in row)).shape + (len(rows),) * 2)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


class _AlphaTerms:
    """The terms of alpha alone that the divergence, its mass and its
    moments use, as numpy arrays with one entry per parameter point (m,),
    a float alpha being one point: `alpha`; the alpha = 0 mask `zero` and
    `any_zero`, whether any point needs it; k = 1 + 1/alpha, 1 at alpha =
    0; lift = 1 + alpha; log1p = log1p(alpha); and `col`, alpha against
    observations (m, n), one float when every point shares it: numpy
    multiplies an (m, n) array by a column about three times slower.
    """

    __slots__ = ("alpha", "col", "zero", "k", "lift", "log1p", "any_zero")

    def __init__(self, alpha):
        self.alpha = alpha = np.asarray(alpha, dtype=float).reshape(-1)
        self.col = float(alpha[0]) if alpha.size and (alpha == alpha[0]).all() else alpha[:, None]
        self.zero = alpha == 0.0
        self.any_zero = bool(self.zero.any())
        self.k = 1.0 + 1.0 / np.where(self.zero, np.inf, alpha)
        self.lift = 1.0 + alpha
        self.log1p = np.log1p(alpha)

    def rows(self, rows):
        """The terms of the points that rows, a mask or indices, selects."""
        return _AlphaTerms(self.alpha[rows])


def _trigamma(a):
    """polygamma(1, a), as the Hurwitz zeta(2, a): the same floats, three
    times faster."""
    return special.zeta(2.0, a)


def _outer(u):
    return u[..., :, None] * u[..., None, :]


def _times(mass, arr):
    """mass, one value per parameter point, times a vector or matrix per point."""
    mass = np.asarray(mass)
    return mass.reshape(mass.shape + (1,) * (arr.ndim - mass.ndim)) * arr


@dataclass(frozen=True)
class Family:
    """A model family: its tag and parameter names, plus the functions
    that define it. Equality, hashing and repr use the first three only.

    The functions take the parameter values v first: terms(v, x, lnx),
    on validated x with lnx = log x, gives ln f, the score components u
    and the rows of their Jacobian du/dtheta, from shared intermediates,
    and is the one form of ln f; cdf(v, x); ppf(v, q); tilted(v, al)
    gives the mass M = integral of f^(1+c), c being al's alpha, and the
    moments of the law f^(1+c)/M, a known law of the family's own kind
    (Basu, Harris, Hjort & Jones 1998), whose parameters each family
    derives once: (M, E[u u'], E[u], E[du/dtheta]), the last None where
    du is constant in x (exponential, gamma), as E[du] is then terms'
    du. start(xs) gives the moment or regression start point (p,), free
    of alpha: estimator._fit_rows raises a shape above its floor;
    at_zero(v) is the density's limit at x = 0.

    tilted reads alpha only through al, the _AlphaTerms of one alpha per
    parameter point. terms, cdf and tilted also take a batch of
    parameter points: v holds one array per parameter, broadcasting
    against x (the kernel passes columns (m, 1) to terms, with
    observations as one row (1, n) or a row per point (m, n), and v of
    shape (m,) to tilted). Per-observation results take the broadcast
    shape, an entry constant in x the shape of v; tilted gives M (m,)
    and the moments (m, p, p) and (m, p) for al of m points, v of shape
    (m,) or one float per parameter.
    """

    tag: str
    param_count: int
    param_names: tuple
    shaped: bool = _entry(False)  # the first parameter is a shape a > alpha/(1+alpha)
    cdf: object = _entry()
    ppf: object = _entry()
    terms: object = _entry()
    tilted: object = _entry()
    start: object = _entry()
    at_zero: object = _entry()

    def __str__(self):
        return self.tag


# --- exponential: u = 1/lambda - x -------------------------------------------

def _exp_cdf(v, x):
    return -np.expm1(-v[0] * x)


def _exp_ppf(v, q):
    return -np.log1p(-q) / v[0]


def _exp_terms(v, x, lnx):
    lam = v[0]
    return np.log(lam) - lam * x, (1.0 / lam - x,), ((-1.0 / lam**2,),)


def _exp_tilted(v, al):
    # an exponential with rate lambda (1 + c)
    lam, c = v[0], al.alpha
    rate = lam * al.lift
    mass = np.exp(c * np.log(lam) - al.log1p)
    return mass, _mat([[(1.0 + c * c) / rate**2]]), _vec([c / rate]), None


def _exp_start(xs):
    return (1.0 / float(xs.mean()),)


def _exp_at_zero(v):
    return v[0]


# --- gamma: u = (ln x + ln b - digamma(a), a/b - x) ---------------------------

def _gamma_cdf(v, x):
    return special.gammainc(v[0], v[1] * x)


def _gamma_ppf(v, q):
    # no closed form: invert the CDF, every probability in lockstep
    return invert_cdf(lambda x: _gamma_cdf(v, x), q)


def _gamma_terms(v, x, lnx):
    a, b = v
    lb = np.log(b)
    lnf = a * lb + (a - 1.0) * lnx - b * x - special.gammaln(a)
    u = lb - special.digamma(a) + lnx, a / b - x
    # the Jacobian is constant in x
    return lnf, u, ((-_trigamma(a), 1.0 / b), (1.0 / b, -a / b**2))


def _gamma_tilted(v, al):
    # a gamma with shape a + c(a - 1) and rate b (1 + c): exactly a at c = 0
    a, b = v
    c = al.alpha
    shape, rate = a + c * (a - 1.0), b * al.lift
    mass = np.exp(
        special.gammaln(shape)
        + c * np.log(b)
        - al.lift * special.gammaln(a)
        - shape * al.log1p
    )
    mean = _vec([special.digamma(shape) - special.digamma(a) - al.log1p, c / rate])
    cov = _mat([[_trigamma(shape), -1.0 / rate], [-1.0 / rate, shape / rate**2]])
    return mass, cov + _outer(mean), mean, None


def _gamma_start(xs):
    mean = float(xs.mean())
    var = float(xs.var(ddof=1))
    if not var > 0.0:  # distinct values so small that their variance underflows
        raise FitError(f"gamma moment start needs a positive sample variance, got {var:g}")
    return mean * mean / var, mean / var


def _shape_rate_at_zero(v):
    a = v[0]
    if a == 1.0:
        return v[1]
    return 0.0 if a > 1.0 else math.inf


# --- lognormal: u = (w, (w^2 - sigma^2)/sigma) / sigma^2, w = ln x - mu -------

def _lognormal_cdf(v, x):
    return special.ndtr((np.log(x) - v[0]) / v[1])


def _lognormal_ppf(v, q):
    return np.exp(v[0] + v[1] * special.ndtri(q))


def _lognormal_terms(v, x, lnx):
    mu, sigma = v
    d = lnx - mu
    z, dd = d / sigma, d * d
    cross = -2.0 * d / sigma**3
    return (
        -_LOG_SQRT_2PI - np.log(sigma) - lnx - 0.5 * z * z,
        (d / sigma**2, (dd - sigma**2) / sigma**3),
        ((-1.0 / sigma**2, cross), (cross, 1.0 / sigma**2 - 3.0 * dd / sigma**4)),
    )


def _lognormal_tilted(v, al):
    # w = ln x - mu ~ N(m, s2)
    mu, sigma = v
    c = al.alpha
    mass = np.exp(
        -0.5 * al.log1p
        - c * (_LOG_SQRT_2PI + np.log(sigma))
        - c * mu
        + c * c * sigma**2 / (2.0 * al.lift)
    )
    m, s2 = -c * sigma**2 / al.lift, sigma**2 / al.lift
    sig2, sig4 = sigma**2, sigma**4
    mean = _vec([m / sig2, m * (m + 1.0) / sigma / sig2])
    cov_ms = 2.0 * m * s2 / sigma / sig4
    cov = _mat(
        [[s2 / sig4, cov_ms], [cov_ms, 2.0 * s2 * (s2 + 2.0 * m * m) / sigma**2 / sig4]]
    )
    # du/dtheta is quadratic in w, with E[w] = m and E[w^2] = s2 + m^2
    cross = -2.0 * m / sigma**3
    dmean = _mat([[-1.0 / sig2, cross], [cross, 1.0 / sig2 - 3.0 * (s2 + m * m) / sig4]])
    return mass, cov + _outer(mean), mean, dmean


def _lognormal_start(xs):
    logs = np.log(xs)
    return float(logs.mean()), max(float(logs.std()), 1e-3)


def _lognormal_at_zero(v):
    return 0.0


# --- Weibull: u = ((1 + L (1 - t))/a, (a/b)(1 - t)), t = (bx)^a, L = ln t -----

def _weibull_cdf(v, x):
    a, b = v
    return -np.expm1(-((b * x) ** a))


def _weibull_ppf(v, q):
    a, b = v
    return (-np.log1p(-q)) ** (1.0 / a) / b


def _weibull_terms(v, x, lnx):
    a, b = v
    lb = np.log(b)
    lbx = lb + lnx
    t = np.exp(a * lbx)
    rest = 1.0 - t
    lt = lbx * t
    cross = (rest - a * lt) / b
    return (
        np.log(a) + lb + (a - 1.0) * lbx - t,
        (1.0 / a + lbx * rest, (a / b) * rest),
        ((-1.0 / a**2 - lbx * lt, cross), (cross, -(a / b**2) * (rest + a * t))),
    )


def _weibull_tilted(v, al):
    # t ~ Gamma(shape, rate); E[t^j] = r_j, E[t^j L] = r_j d_j, E[t^j L^2] = r_j q_j
    a, b = v
    c = al.alpha
    shape, rate, rate2 = 1.0 + c * (a - 1.0) / a, al.lift, al.lift * al.lift
    mass = np.exp(c * (np.log(a) + np.log(b)) + special.gammaln(shape) - shape * al.log1p)
    r = _vec([1.0, shape / rate, shape * (shape + 1.0) / rate2])
    shapes = np.asarray(shape)[..., None] + np.arange(3.0)
    d = special.digamma(shapes) - al.log1p[..., None]
    q = d * d + _trigamma(shapes)
    # a row per power of t (v is 0- or 1-d, so .T moves the last axis first)
    el, eq = (r * d).T, (r * q).T
    tail = c / (a * rate)  # 1 - E[t]
    mean = _vec([(1.0 + el[0] - el[1]) / a, a / b * tail])
    s_aa = (1.0 + 2.0 * (el[0] - el[1]) + eq[0] - 2.0 * eq[1] + eq[2]) / a**2
    s_ab = (tail + el[0] - 2.0 * el[1] + el[2]) / b
    s_bb = (a / b) ** 2 * (shape / rate2 + tail * tail)
    # du/dtheta is linear in t, t L and t L^2
    cross = (tail - el[1]) / b
    dmean = _mat([[-(1.0 + eq[1]) / a**2, cross], [cross, -(a / b**2) * (tail + a * (1.0 - tail))]])
    return mass, _mat([[s_aa, s_ab], [s_ab, s_bb]]), mean, dmean


def _weibull_start(xs):
    # slope of ln(-ln(1-p)) on ln x at plotting positions (i-1/2)/n
    n = xs.size
    pp = (np.arange(1, n + 1) - 0.5) / n
    y = np.log(-np.log1p(-pp))
    z = np.log(np.sort(xs))
    vz = float(((z - z.mean()) ** 2).mean())
    a0 = float(((z - z.mean()) * (y - y.mean())).mean() / vz) if vz > 0 else 1.0
    return a0, np.exp(special.gammaln(1.0 + 1.0 / a0)) / float(xs.mean())


EXPONENTIAL = Family(
    "exponential", 1, ("rate",),
    cdf=_exp_cdf, ppf=_exp_ppf, terms=_exp_terms, tilted=_exp_tilted,
    start=_exp_start, at_zero=_exp_at_zero,
)
GAMMA = Family(
    "gamma", 2, ("shape", "rate"), shaped=True,
    cdf=_gamma_cdf, ppf=_gamma_ppf, terms=_gamma_terms,
    tilted=_gamma_tilted, start=_gamma_start,
    at_zero=_shape_rate_at_zero,
)
LOGNORMAL = Family(
    "lognormal", 2, ("log_mean", "log_sd"),
    cdf=_lognormal_cdf, ppf=_lognormal_ppf, terms=_lognormal_terms,
    tilted=_lognormal_tilted, start=_lognormal_start,
    at_zero=_lognormal_at_zero,
)
WEIBULL = Family(
    "weibull", 2, ("shape", "rate"), shaped=True,
    cdf=_weibull_cdf, ppf=_weibull_ppf, terms=_weibull_terms,
    tilted=_weibull_tilted, start=_weibull_start,
    at_zero=_shape_rate_at_zero,
)

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
        for name, v, positive in zip(self.family.param_names, vals, _positive(self.family)):
            if positive and v <= 0.0:
                raise DomainError(f"{self.family.tag} {name} must be positive, got {v}")

    def __iter__(self):
        return iter(self.values)


def _check_family(family, theta):
    if theta.family != family:
        raise DomainError(f"theta is for {theta.family.tag}, expected {family.tag}")


def _positive(family):
    """Which parameters must be positive: all but the lognormal log-mean."""
    return np.array([name != "log_mean" for name in family.param_names])


def _shape_floor(alpha):
    """alpha/(1+alpha): a gamma or Weibull shape must exceed it."""
    return alpha / (1.0 + alpha)


def _inside(family, theta, alpha):
    """The one test of a candidate point: which rows of theta (m, p) are
    finite, positive but for the lognormal log-mean, and, for a gamma or
    Weibull, have a shape above _shape_floor(alpha), alpha (m,) or one
    float."""
    ok = np.isfinite(theta) & ((theta > 0.0) | ~_positive(family))
    if family.shaped:
        ok[:, 0] &= theta[:, 0] > _shape_floor(alpha)
    return ok.all(axis=1)


def check_dpd_valid(p, alpha):
    """Gamma/Weibull shape must exceed alpha/(1+alpha) for the DPD terms to exist."""
    _check_shape(p.family, p.values[0], alpha)


def _checked_alpha(alpha):
    """alpha as a float, after the one check of alpha: a finite nonnegative
    real. alpha > 1 passes: the sandwich checks 2 alpha."""
    if not (isinstance(alpha, numbers.Real) and 0.0 <= alpha < math.inf):
        raise DomainError(f"alpha must be finite and nonnegative real, got {alpha!r}")
    return float(alpha)


def _check_shape(family, shape, alpha):
    """check_dpd_valid for a family whose first parameter is `shape`."""
    floor = _shape_floor(_checked_alpha(alpha))
    if family.shaped and shape <= floor:
        raise DpdValidityError(
            f"{family.tag} shape {shape:g} <= alpha/(1+alpha) = {floor:g} "
            f"at alpha = {alpha:g}; DPD integrals do not exist"
        )


def _check_x(x):
    """x, or a sample's .values, as a float array of the same shape;
    the one check that data are nonempty, strictly positive and finite."""
    arr = np.asarray(getattr(x, "values", x), dtype=float)
    if arr.size == 0 or not np.all(arr > 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("values must be nonempty, strictly positive and finite")
    return arr


def log_density(p, x):
    """ln f_theta(x), vectorized over x: terms' ln f, taken as score takes them."""
    x = _check_x(x)
    with np.errstate(all="ignore"):
        return p.family.terms(np.array(p.values), x, np.log(x))[0]


def dpd_weights(family, theta, alpha, sample):
    """Per-observation weights f_theta^alpha; identically 1 at alpha = 0.
    alpha and theta must pass check_dpd_valid."""
    _check_family(family, theta)
    check_dpd_valid(theta, alpha)
    x = np.atleast_1d(_check_x(sample))
    if alpha == 0.0:
        return np.ones_like(x)
    return np.exp(alpha * log_density(theta, x))


def density(p, x):
    return np.exp(log_density(p, x))


def cdf(p, x):
    return p.family.cdf(p.values, _check_x(x))


def quantile(p, q):
    """Inverse CDF, vectorized over q.

    Closed forms except gamma, whose CDF is inverted numerically, every
    probability in lockstep.
    """
    arr = np.asarray(q, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile requires q in (0, 1)")
    out = p.family.ppf(p.values, arr)
    return float(out) if np.ndim(q) == 0 else out


def score(p, x):
    """Gradient of ln f_theta(x) in theta; shape x.shape + (param_count,).
    The terms are taken in float64 as the kernel takes them, so that the
    Jacobian they also give, and discard here, may overflow to inf."""
    x = _check_x(x)
    with np.errstate(all="ignore"):
        return _vec(p.family.terms(np.array(p.values), x, np.log(x))[1])


def dpd_mass_integral(p, alpha):
    """Closed form of the mass term M(theta) = integral of f_theta^(1+alpha):
    weighted_moments' M, exactly 1 at alpha = 0."""
    return weighted_moments(p, alpha)[0]


def weighted_moments(p, c):
    """Closed forms of (M, integral of u u' f^(1+c), integral of u f^(1+c)).

    f^(1+c)/M is the density of a known law, the family's tilted entry,
    so each integral is M times a score moment under that law:
    exponential with rate b(1+c); gamma with shape a + c(a-1) and rate
    b(1+c); for the lognormal, ln x - mu is N(-c sigma^2/(1+c),
    sigma^2/(1+c)); for the Weibull, (bx)^a is gamma with shape 1 +
    c(a-1)/a and rate 1+c. At c = 0 this is (1, Fisher information, 0).
    J, K and xi of the sandwich are built from these (Basu, Harris,
    Hjort & Jones 1998). The one-point case of _moment_rows.
    """
    mass, uu, u, (error,) = _moment_rows(p.family, np.array([p.values]), np.array([_checked_alpha(c)]))
    if error is not None:
        raise error
    return mass[0], uu[0], u[0]


def _moment_rows(family, theta, c):
    """weighted_moments at each row of theta (m, p), row r at c[r], from
    one family.tilted call, each integral of g f^(1+c) being M E[g]: (M
    (m,), uu (m, p, p), u (m, p), errors), errors[r] being None or the
    error check_dpd_valid raises at row r, whose moments are then those
    at c = 0 and meaningless. M is exactly 1 at c = 0, as
    dpd_mass_integral gives it, also where gammaln overflows. Overflow at
    extreme parameters gives entries that are not finite, silently; the
    sandwich refuses such a J.
    """
    errors = [None] * c.size
    for r, (shape, cr) in enumerate(zip(theta[:, 0].tolist(), c.tolist())):
        try:
            _check_shape(family, shape, cr)
        except DpdError as exc:
            errors[r] = exc
    if any(errors):
        c = np.where([e is not None for e in errors], 0.0, c)
    v = tuple(theta.T)
    with np.errstate(all="ignore"):
        al = _AlphaTerms(c)
        mass, uu, u, _ = family.tilted(v, al)
        if al.any_zero:
            mass = np.where(al.zero, 1.0, mass)
        return mass, _times(mass, uu), _times(mass, u), errors
