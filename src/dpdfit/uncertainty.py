"""Bootstrap standard errors and seeded sample generation.

A bootstrap replicate is a row of draw counts over the sample, each
value weighted by its count / n: one row of estimator._solve_rows,
which starts it one Newton step of its objective off the full-sample
fit and solves it over the values it drew, the k-step bootstrap of
Andrews (Econometrica, 2002) taken on to rounding.

All randomness comes from the counter-based Philox generator. Stream
r of a seed is Philox(SeedSequence(seed, spawn_key=(r,))), so every
replicate's draws are fixed by (seed, r) alone and results cannot
depend on execution order or thread count.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import Sample, write_rows
from .errors import DomainError, FitError
from .estimator import _sample_values, _solve_rows, fit
from .families import ParamVector, _check_family, quantile

__all__ = [
    "BootstrapResult",
    "ContaminationScheme",
    "bootstrap_se",
    "sample_family",
    "simulate_contaminated",
]


def _stream(seed, r):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r,))))


def _as_param_vector(family, theta):
    if isinstance(theta, ParamVector):
        _check_family(family, theta)
        return theta
    return ParamVector(family, tuple(theta))


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate estimates and their spread around a full-sample fit.

    replicate_estimates holds converged replicates only, one row per
    replicate id in replicate_ids; failures counts the dropped ones.
    """

    fit: object
    B: int
    se: tuple
    replicate_estimates: tuple
    replicate_ids: tuple
    failures: int
    warning: str = None

    def estimates_to_csv(self, path_or_fp):
        names = self.fit.family.param_names
        write_rows(path_or_fp, ["replicate", "param", "value"], (
            [rid, name, repr(float(v))]
            for rid, est in zip(self.replicate_ids, self.replicate_estimates)
            for name, v in zip(names, est)
        ))


@dataclass(frozen=True)
class ContaminationScheme:
    """Mixture (1 - epsilon) base + epsilon at a point or displaced law.

    point_or_dist is either a positive contamination point y or a
    ParamVector of the displaced distribution to draw from.
    """

    epsilon: float
    point_or_dist: object
    seed: int = 0

    def __post_init__(self):
        eps = float(self.epsilon)
        if not (0.0 <= eps < 0.5 and isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DomainError(f"need epsilon in [0, 0.5) and seed >= 0, got {eps}, {self.seed!r}")
        object.__setattr__(self, "epsilon", eps)
        pod = self.point_or_dist
        if isinstance(pod, ParamVector):
            return
        try:
            y = float(pod)
        except (TypeError, ValueError):
            raise DomainError(
                "point_or_dist must be a positive point or a ParamVector"
            ) from None
        if not np.isfinite(y) or y <= 0.0:
            raise DomainError(f"contamination point must be positive and finite, got {y}")
        object.__setattr__(self, "point_or_dist", y)


def sample_family(family, theta, n, seed):
    """n inverse-CDF draws from the family at theta, fixed by seed."""
    p = _as_param_vector(family, theta)
    # a float, even a whole one, is not a count or a seed
    if not (all(isinstance(v, numbers.Integral) for v in (n, seed)) and n >= 1 and seed >= 0):
        raise DomainError(f"need integers n >= 1 and seed >= 0, got {n!r} and {seed!r}")
    u = _stream(seed, 0).random(n)
    # random() can return exactly 0, which the quantile domain excludes.
    u = np.maximum(u, 1e-300)
    return Sample(np.atleast_1d(quantile(p, u)), label=f"{family.tag}-sim-{seed}")


def simulate_contaminated(family, theta, scheme, n):
    """Base draws with each observation independently replaced with
    probability epsilon; epsilon = 0 reproduces sample_family bit for
    bit because replacement uses a separate stream."""
    base = sample_family(family, theta, n, scheme.seed)
    xs = np.asarray(base.values, dtype=float)
    rng = _stream(scheme.seed, 1)
    marks = rng.random(int(n)) < scheme.epsilon
    k = int(np.count_nonzero(marks))
    if k:
        pod = scheme.point_or_dist
        if isinstance(pod, ParamVector):
            u = np.maximum(rng.random(k), 1e-300)
            xs[marks] = np.atleast_1d(quantile(pod, u))
        else:
            xs[marks] = pod
    return Sample(xs, label=f"{family.tag}-contam-{scheme.seed}")


def _replicate_rows(xs, B, seed):
    """The draw counts (B, n) of B resamples of xs: replicate r draws n
    indices by stream r of seed, and row r holds how often it drew each
    value."""
    n = xs.size
    counts = np.empty((B, n), dtype=np.min_scalar_type(n))
    for r in range(B):
        counts[r] = np.bincount(_stream(seed, r).integers(0, n, size=n), minlength=n)
    return counts


def bootstrap_se(family, alpha, sample, B=1000, seed=0):
    """Nonparametric bootstrap around the full-sample fit.

    Replicate r resamples n observations by stream r of seed: its draw
    counts over the sample, divided by n, are one row of the one
    estimator._solve_rows call, which takes the full-sample estimate and
    solves the row by Newton from one Newton step of its objective off
    that estimate. There its gradient and Hessian are its draw counts /
    n times those of each value alone, one kernel call for all B, so no
    replicate spends an evaluation at the estimate; a replicate whose
    step is not pd or leaves the parameter space starts at the estimate.
    se is the standard deviation over solved replicates, divisor B_conv
    - 1; over 5% unsolved warns.
    A replicate is solved over the values it drew, its row as wide as
    the largest support among the B replicates, unless that support
    leaves out less than a tenth of the sample (small n), when every row
    is the whole sample; so its estimate may move with B by rounding
    (1e-14 relative at most in the tests), though its draws never do.
    """
    if not (all(isinstance(v, numbers.Integral) for v in (B, seed)) and B >= 2 and seed >= 0):
        raise DomainError(f"need integers B >= 2 and seed >= 0, got {B!r} and {seed!r}")
    full = fit(family, alpha, sample)
    xs = _sample_values(sample)
    counts = _replicate_rows(xs, int(B), seed)
    theta, solved, _ = _solve_rows(family, [alpha], xs, counts, xs.size, [full.theta_hat.values])
    ids = np.flatnonzero(solved)
    failures = int(B) - ids.size
    if ids.size < 2:
        raise FitError(f"bootstrap needs at least 2 converged replicates, got {ids.size} of {B}")
    warning = None
    if failures > 0.05 * B:
        warning = f"{failures} of {B} bootstrap replicates failed to converge"
        warnings.warn(warning, RuntimeWarning, stacklevel=2)
    return BootstrapResult(
        fit=full,
        B=int(B),
        se=tuple(float(v) for v in np.std(theta[ids], axis=0, ddof=1)),
        replicate_estimates=tuple(tuple(float(v) for v in row) for row in theta[ids]),
        replicate_ids=tuple(int(r) for r in ids),
        failures=failures,
        warning=warning,
    )
