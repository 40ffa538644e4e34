"""Tests for estimator._solve_rows, the one route of every refit.

Leave-one-out fits and bootstrap replicates are both weighted rows of
the batched Newton kernel, solved in chunks of _ROW_BUDGET // n rows.
The per-replicate warm refit, fit(family, alpha, resample,
warm_start=full.theta_hat), is kept here as the reference: each
bootstrap row matches it, and a row fails exactly where that refit
raises or does not converge. The chunk size changes no result.
"""

import warnings

import numpy as np
import pytest

from conftest import as_sample
from dpdfit import estimator
from dpdfit.errors import DpdError
from dpdfit.estimator import fit
from dpdfit.families import FAMILIES, ParamVector, quantile
from dpdfit.tuning import _loo_points, _sorted_values
from dpdfit.uncertainty import ContaminationScheme, _stream, bootstrap_se, simulate_contaminated

THETA = {
    "exponential": (0.5,),
    "gamma": (5.0, 0.05),
    "lognormal": (2.0, 0.6),
    "weibull": (1.6, 0.02),
}
TAGS = sorted(THETA)


def tied_contamination(tag, n=60, seed=0):
    """n points, 10% of them replaced by one value at 10x the 99th percentile."""
    family = FAMILIES[tag]
    point = 10.0 * float(quantile(ParamVector(family, THETA[tag]), 0.99))
    scheme = ContaminationScheme(0.1, point, seed=seed)
    return simulate_contaminated(family, THETA[tag], scheme, n)


def warm_refits(family, alpha, sample, B, seed):
    """The per-replicate route: {replicate id: estimate} over the warm
    refits that return converged, and the ids of the others."""
    full = fit(family, alpha, sample)
    xs = np.asarray(sample.values)
    estimates, failed = {}, set()
    for r in range(B):
        idx = _stream(seed, r).integers(0, xs.size, size=xs.size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                res = fit(family, alpha, xs[idx], warm_start=full.theta_hat)
            except DpdError:
                failed.add(r)
                continue
        if res.converged:
            estimates[r] = res.theta_hat.values
        else:
            failed.add(r)
    return estimates, failed


def check_against_warm_refits(family, alpha, sample, B, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = bootstrap_se(family, alpha, sample, B=B, seed=seed)
    want, failed = warm_refits(family, alpha, sample, B, seed)
    assert set(got.replicate_ids) == set(want)
    assert set(range(B)) - set(got.replicate_ids) == failed
    assert got.failures == len(failed)
    for rid, est in zip(got.replicate_ids, got.replicate_estimates):
        np.testing.assert_allclose(est, want[rid], rtol=1e-9)


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_bootstrap_rows_match_warm_refits(tag, alpha):
    check_against_warm_refits(FAMILIES[tag], alpha, tied_contamination(tag), B=50, seed=1)


@pytest.mark.parametrize("tag", ["gamma", "lognormal", "weibull"])
def test_failed_rows_are_the_refused_resamples(tag):
    """Resamples of a near-degenerate triple often repeat one value;
    fit refuses those for a two-parameter family, and so does the row."""
    sample = as_sample([1.0, 1.0, 2.0])
    check_against_warm_refits(FAMILIES[tag], 0.0, sample, B=40, seed=0)


@pytest.mark.parametrize("tag", TAGS)
def test_chunk_size_changes_no_result(tag, monkeypatch):
    family = FAMILIES[tag]
    alpha = 0.5
    sample = tied_contamination(tag, n=250)
    xs = _sorted_values(sample, family.param_count)
    start = fit(family, alpha, xs).theta_hat.values

    def run():
        loo = _loo_points(family, alpha, xs, start)
        boot = bootstrap_se(family, alpha, sample, B=40, seed=2)
        return loo, boot

    (loo_theta, loo_solved), boot = run()
    for rows in (7, 64):
        monkeypatch.setattr(estimator, "_ROW_BUDGET", rows * xs.size)
        (theta, solved), other = run()
        np.testing.assert_array_equal(theta, loo_theta)
        np.testing.assert_array_equal(solved, loo_solved)
        assert other.replicate_ids == boot.replicate_ids
        assert other.replicate_estimates == boot.replicate_estimates
        assert other.se == boot.se
