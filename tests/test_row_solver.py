"""Tests for estimator._solve_rows, the one route of every fit.

Full-sample fits, leave-one-out fits and bootstrap replicates are all
weighted rows of the batched Newton kernel, each row at its own alpha
(alpha = 0 a row like any other) from its own start, solved in chunks
of _ROW_BUDGET // n rows, so a grid fit is one kernel call. The
one-row fits are kept here as the reference: each row of a grid batch
(fit_alphas) is bit for bit the fit at its alpha, and each bootstrap row
matches the per-replicate warm refit, fit(family, alpha, resample,
warm_start=full.theta_hat), failing exactly where that refit raises or
does not converge. The chunk size changes no result, no converged
gamma or Weibull row sits on or below its alpha's shape floor, and no
one-row fit off the grid returns a shape there.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import as_sample
from dpdfit import estimator
from dpdfit.errors import DpdError, FitError
from dpdfit.estimator import fit, fit_alphas
from dpdfit.families import FAMILIES, ParamVector, quantile
from dpdfit.tuning import COARSE_GRID, _loo_points, _sorted_values
from dpdfit.uncertainty import (
    ContaminationScheme,
    _stream,
    bootstrap_se,
    sample_family,
    simulate_contaminated,
)

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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        starts = [res.theta_hat.values for res in fit_alphas(family, COARSE_GRID, xs)]

    def run():
        loo = _loo_points(family, (alpha,), xs, [start])
        grid = _loo_points(family, COARSE_GRID, xs, starts)
        boot = bootstrap_se(family, alpha, sample, B=40, seed=2)
        return loo, grid, boot

    (loo_theta, loo_solved), (grid_theta, grid_solved), boot = run()
    for rows in (7, 64):
        monkeypatch.setattr(estimator, "_ROW_BUDGET", rows * xs.size)
        (theta, solved), (other_grid, other_solved), other = run()
        np.testing.assert_array_equal(theta, loo_theta)
        np.testing.assert_array_equal(solved, loo_solved)
        np.testing.assert_array_equal(other_grid, grid_theta)
        np.testing.assert_array_equal(other_solved, grid_solved)
        assert other.replicate_ids == boot.replicate_ids
        assert other.replicate_estimates == boot.replicate_estimates
        assert other.se == boot.se


def as_record(res):
    """Every field a row must share with its one-row fit, or the error."""
    if isinstance(res, DpdError):
        return repr(res)
    return res.theta_hat.values, res.objective, res.converged, res.evaluations


def one_row_fits(family, sample):
    out = []
    for alpha in COARSE_GRID:
        try:
            out.append(fit(family, alpha, sample))
        except DpdError as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("tag", TAGS)
def test_grid_batch_matches_one_row_fits(tag):
    """One fit_alphas batch over the grid, alpha = 0 included, is bit for
    bit the 21 one-row fits: theta, objective, converged, evaluations."""
    family = FAMILIES[tag]
    sample = tied_contamination(tag)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = fit_alphas(family, COARSE_GRID, sample)
        want = one_row_fits(family, sample)
    assert [as_record(res) for res in batch] == [as_record(res) for res in want]


def test_alpha_zero_rows_share_the_kernel_call(monkeypatch):
    """alpha = 0 rows are ordinary rows: a grid fit is one _newton_rows call
    of 21 rows, and the leave-one-out grid at n = 60 is as many calls as
    its 1260 rows fill chunks of _ROW_BUDGET // 60."""
    calls = []
    solve = estimator._newton_rows

    def counted(family, alphas, values, weights, starts):
        calls.append(len(alphas))
        return solve(family, alphas, values, weights, starts)

    monkeypatch.setattr(estimator, "_newton_rows", counted)
    family = FAMILIES["gamma"]
    xs = _sorted_values(tied_contamination("gamma"), family.param_count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fits = fit_alphas(family, COARSE_GRID, xs)
    assert calls == [len(COARSE_GRID)] == [21]
    calls.clear()
    _loo_points(family, COARSE_GRID, xs, [res.theta_hat.values for res in fits])
    rows = xs.size * len(COARSE_GRID)
    assert len(calls) == math.ceil(rows / (estimator._ROW_BUDGET // xs.size)) == 5
    assert sum(calls) == rows


def test_one_failing_row_leaves_the_others_bitwise():
    """A row whose start overflows the objective fails as its fit would,
    and the other 20 alphas of the batch are still their one-row fits."""
    gamma = FAMILIES["gamma"]

    def start(xs, alphas):
        out = gamma.start(xs, alphas)
        out[np.asarray(alphas) == 0.5] = 1e308
        return out

    broken = dataclasses.replace(gamma, start=start)
    sample = tied_contamination("gamma")
    batch = fit_alphas(broken, COARSE_GRID, sample)
    want = one_row_fits(gamma, sample)
    failed = [alpha for alpha, res in zip(COARSE_GRID, batch) if isinstance(res, DpdError)]
    assert failed == [0.5]
    assert isinstance(batch[COARSE_GRID.index(0.5)], FitError)
    with pytest.raises(FitError, match="objective not finite"):
        fit(broken, 0.5, sample)
    for alpha, got, res in zip(COARSE_GRID, batch, want):
        if alpha != 0.5:
            assert as_record(got) == as_record(res)


@pytest.mark.parametrize("tag", ["gamma", "weibull"])
def test_converged_rows_stay_above_their_shape_floor(tag):
    """In mixed-alpha batches, full-sample and leave-one-out, no converged
    row has shape <= alpha/(1+alpha), and a one-row fit at an alpha off
    the grid returns a shape above its floor, converged or not. Shape-0.15
    data put the alpha = 1 optimum near 0.55, just above that alpha's
    floor of 0.5."""
    family = FAMILIES[tag]
    xs = _sorted_values(sample_family(family, ParamVector(family, (0.15, 1.0)), 60, seed=0), 2)
    floors = np.array([alpha / (1.0 + alpha) for alpha in COARSE_GRID])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fits = fit_alphas(family, COARSE_GRID, xs)
    assert fits[-1].theta_hat.values[0] < 0.6
    shapes = np.array([res.theta_hat.values[0] for res in fits])
    converged = np.array([res.converged for res in fits])
    assert converged.any()
    assert not (converged & (shapes <= floors)).any()
    theta, solved = _loo_points(family, COARSE_GRID, xs, [res.theta_hat.values for res in fits])
    assert solved.any()
    assert not (solved & (theta[:, :, 0] <= floors)).any()
    for alpha in (0.37, 0.83):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = fit(family, alpha, xs)
        assert res.theta_hat.values[0] > alpha / (1.0 + alpha)
