"""Tests for estimator._solve_rows, the one route of every fit.

Full-sample fits, leave-one-out fits and bootstrap replicates are all
rows of counts over the sample (ones, 1 - I over n - 1, draw counts
over n), each at each alpha of the batch (alpha = 0 a row like any
other) from its own start, solved by the batched Newton kernel in
chunks of _ROW_BUDGET // width rows, so a grid fit is one kernel call.
The rows share the sample, or run on their own drawn supports where
the widest leaves out a tenth of it, and the two layouts agree to
rounding. The
one-row fits are kept here as the reference: each row of a grid batch
(fit_alphas) is bit for bit the fit at its alpha, and each bootstrap row
matches the per-replicate warm refit, fit(family, alpha, resample,
warm_start=full.theta_hat), failing exactly where that refit raises or
does not converge. A replicate starts one Newton step of its objective
off the full-sample fit, or at the fit where that step is not pd or
leaves the parameter space, and from there takes no more evaluations
than from the fit, and fewer in all. The chunk size changes no result,
no converged gamma or Weibull row sits on or below its alpha's shape
floor, and no one-row fit off the grid returns a shape there. A row
stops on its predicted next step only after a full step at a pd
Hessian, and every solved row is a fixed point of one more step to
rounding. An alpha = 0
row reads only the family's terms, whatever its tilted law gives, and a
round whose trial points all leave the parameter space halves them
without calling the kernel. The kernel's Newton step takes its
eigenvalues in closed form; LAPACK's eigh, kept here as the reference,
must give the same flags, step and reach to rounding, however badly the
Hessian is scaled, and gamma and Weibull data near 1e7-1e10 must fit and
tune as the same data near 1 do.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_sample
from dpdfit import estimator, uncertainty
from dpdfit.errors import DpdError, FitError
from dpdfit.estimator import (
    _newton_step,
    _one_step_starts,
    _solve_rows,
    _weighted_terms,
    fit,
    fit_alphas,
)
from dpdfit.families import FAMILIES, ParamVector, _AlphaTerms, quantile
from dpdfit.tuning import COARSE_GRID, _loo_points, _sorted_values, select_alpha
from dpdfit.uncertainty import (
    ContaminationScheme,
    _replicate_rows,
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


class TestReplicateStarts:
    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_start_is_one_newton_step_of_the_replicate_objective(self, tag, alpha):
        """Replicate r's start is the full-sample fit less H^-1 g of its
        objective, both taken at the fit, here with count / n weights and
        a plain linear solve."""
        family = FAMILIES[tag]
        xs = np.asarray(sample_family(family, ParamVector(family, THETA[tag]), 60, seed=0).values)
        theta = np.array([fit(family, alpha, xs).theta_hat.values])
        counts = _replicate_rows(xs, 40, 1)
        starts = _one_step_starts(family, [alpha], xs, theta, counts, xs.size)
        assert starts.shape == (40, family.param_count)
        assert (starts != theta).any(axis=1).all()
        for start, row in zip(starts, counts):
            _, grad, hess, _ = _weighted_terms(
                family, _AlphaTerms(alpha), xs[None], np.log(xs)[None], row / xs.size, theta
            )
            want = theta[0] - np.linalg.solve(hess[0], grad[0])
            np.testing.assert_allclose(start, want, rtol=1e-9)

    @pytest.mark.parametrize(
        "tag, scale",
        [("exponential", (3.0,)), ("lognormal", (0.1, 1.0))],
        ids=["off-the-space", "off-pd"],
    )
    def test_start_falls_back_to_the_fit(self, tag, scale, monkeypatch):
        """From a full-sample point of three times the MLE rate, the alpha
        = 0 step of the exponential lands at 2 lambda - lambda^2 mean < 0,
        outside the parameter space. A log-mean 1.8 below the MLE's, at
        the MLE log-sd 0.56, makes the lognormal's Hessian indefinite:
        its determinant has the sign of 3 s^2 - sigma^2 - d^2, s^2 and d
        being a replicate's variance of ln x and the offset of its mean,
        near 0.6 - 3.3; its modified step stays inside. Every replicate
        then starts at that point and is still solved, to its own MLE."""
        family = FAMILIES[tag]
        sample = sample_family(family, ParamVector(family, THETA[tag]), 60, seed=0)
        full = fit(family, 0.0, sample)
        bad = np.multiply(full.theta_hat.values, scale)
        starts = []

        def recording(*args):
            starts.append(_one_step_starts(*args))
            return starts[-1]

        shifted = dataclasses.replace(full, theta_hat=ParamVector(family, bad))
        monkeypatch.setattr(uncertainty, "fit", lambda *args: shifted)
        monkeypatch.setattr(uncertainty, "_one_step_starts", recording)
        boot = bootstrap_se(family, 0.0, sample, B=30, seed=5)
        assert (starts[0] == bad).all()
        assert boot.failures == 0
        xs = np.asarray(sample.values)
        for rid, est in zip(boot.replicate_ids, boot.replicate_estimates):
            logs = np.log(xs[_stream(5, rid).integers(0, xs.size, size=xs.size)])
            if tag == "exponential":
                want = (1.0 / np.exp(logs).mean(),)
            else:
                want = (logs.mean(), logs.std())
            np.testing.assert_allclose(est, want, rtol=1e-9)

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_replicates_take_fewer_evaluations(self, tag, alpha, monkeypatch):
        """Solved from their one-step starts, the replicates take fewer
        evaluations in all than the same rows solved from the full-sample
        fit, their first evaluation included, and no row takes more."""
        family = FAMILIES[tag]
        sample = tied_contamination(tag, n=250)
        counts = []
        solve = uncertainty._solve_rows

        def counted(*args):
            out = solve(*args)
            counts.append(out[2])
            return out

        monkeypatch.setattr(uncertainty, "_solve_rows", counted)
        boot = bootstrap_se(family, alpha, sample, B=100, seed=3)
        (one_step,) = counts
        xs = np.asarray(sample.values)
        counts = _replicate_rows(xs, 100, 3)
        _, solved, from_fit = solve(family, [alpha], xs, counts, xs.size, boot.fit.theta_hat.values)
        assert solved.sum() == 100 - boot.failures
        assert (one_step <= from_fit).all()
        assert one_step.sum() < from_fit.sum()


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("kind", ["bootstrap", "leave-one-out"])
def test_shared_and_own_layouts_agree(tag, kind, monkeypatch):
    """The same rows solved on their drawn supports and on the whole
    sample, undrawn values at zero weight, agree to 1e-12 |theta|inf and
    in which are solved. _solve_rows takes the supports while the widest
    leaves out a tenth of the sample, so one more count row over the
    whole sample moves the others to the shared layout. The bootstrap
    rows are 40 replicates of 60 values at alpha 0.5, the leave-one-out
    rows the 10 held-out points of 10 values at alpha 0 and 0.5."""
    family = FAMILIES[tag]
    if kind == "bootstrap":
        xs = np.asarray(tied_contamination(tag).values)
        alphas, counts, total = [0.5], _replicate_rows(xs, 40, 1), xs.size
    else:
        xs = _sorted_values(tied_contamination(tag, n=10), family.param_count)
        alphas, counts, total = [0.0, 0.5], 1 - np.eye(xs.size, dtype=np.uint8), xs.size - 1
    fits = [res.theta_hat.values for res in fit_alphas(family, alphas, xs)]
    both = np.vstack([counts, np.ones((1, xs.size), dtype=counts.dtype)])
    starts = _one_step_starts(family, alphas, xs, fits, both, total)
    m = counts.shape[0] * len(alphas)
    layouts = []
    newton_rows = estimator._newton_rows

    def recording(family, alphas, values, weights, starts):
        layouts.append(np.ndim(values))
        return newton_rows(family, alphas, values, weights, starts)

    monkeypatch.setattr(estimator, "_newton_rows", recording)
    own, own_solved, _ = _solve_rows(family, alphas, xs, counts, total, starts[:m])
    assert set(layouts) == {2}
    layouts.clear()
    shared, shared_solved, _ = _solve_rows(family, alphas, xs, both, total, starts)
    assert set(layouts) == {1}
    np.testing.assert_array_equal(shared_solved[:m], own_solved)
    assert own_solved.mean() > 0.9
    gap = np.abs(shared[:m] - own).max(axis=1)
    assert (gap[own_solved] <= 1e-12 * np.abs(own[own_solved]).max(axis=1)).all()


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


@pytest.mark.parametrize("tag", TAGS)
def test_empty_alpha_batch_fits_nothing(tag):
    """A batch of no alphas is an empty list, whatever its container."""
    family = FAMILIES[tag]
    sample = tied_contamination(tag)
    assert fit_alphas(family, [], sample) == fit_alphas(family, np.array([]), sample) == []


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


@pytest.mark.parametrize("tag", ["gamma", "weibull"])
def test_alpha_terms_are_taken_once_per_solve(tag, monkeypatch):
    """The terms of alpha alone are taken from the alphas (an _AlphaTerms
    built in the estimator) once per _newton_rows call, not at each of
    its evaluations, and once for the one-step starts: the leave-one-out
    grid at n = 60 makes 5 solves, over more evaluations than that. Rows
    are then only selected from them (_AlphaTerms.rows)."""
    family = FAMILIES[tag]
    xs = _sorted_values(tied_contamination(tag), family.param_count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        starts = [res.theta_hat.values for res in fit_alphas(family, COARSE_GRID, xs)]
    counts = {"_AlphaTerms": 0, "_newton_rows": 0, "_weighted_terms": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(estimator, "_AlphaTerms")
    counted(estimator, "_newton_rows")
    counted(estimator, "_weighted_terms")
    _loo_points(family, COARSE_GRID, xs, starts)
    assert counts["_newton_rows"] == 5
    # the one-step starts take the terms once more, for both their
    # _weighted_terms calls; those calls and the evaluations outnumber the
    # solves, so terms taken per evaluation would break the count
    solves = counts["_newton_rows"] + 1
    assert counts["_AlphaTerms"] == solves < counts["_weighted_terms"]


def test_alpha_terms_take_each_distinct_alpha_once():
    """A leave-one-out chunk (273 rows at n = 60) holds the grid's 21
    alphas over and over; each row gets the log1p, k and lift bits its
    alpha gets alone, and its rows() selection the bits of the chunk."""
    n = 60
    alphas = np.tile(COARSE_GRID, n)[: estimator._ROW_BUDGET // n]
    assert alphas.size == 273
    al = _AlphaTerms(alphas)
    picked = al.rows(np.arange(0, alphas.size, 2))
    for name in ("log1p", "k", "lift"):
        alone = [getattr(_AlphaTerms(a), name)[0] for a in alphas.tolist()]
        assert [v.hex() for v in getattr(al, name).tolist()] == [v.hex() for v in alone], name
        assert getattr(picked, name).tobytes() == getattr(al, name)[::2].tobytes(), name


# Points of an alpha = 0 row whose Hessian is finite (the leading
# FINITE_HESSIAN[tag] of them) or not: a moderate point; for the gamma,
# u_2 = a/b - x past 1e155 with du finite, so that u u' sums overflow;
# u or du overflowing with ln f finite; and ln f not finite.
EDGE_POINTS = {
    "exponential": [(0.02,), (1e-320,), (1e308,)],
    "gamma": [(3.0, 0.05), (1e11, 1e-144), (1.0, 1e-200), (1e307, 1.0)],
    "lognormal": [(3.0, 0.8), (0.0, 1e-80), (3.0, 1e-300)],
    "weibull": [(1.5, 0.02), (1.0, 1e-200), (1e300, 1.0)],
}
FINITE_HESSIAN = {"exponential": 1, "gamma": 2, "lognormal": 1, "weibull": 1}


def same_bits(a, b):
    """Equal bit for bit, any NaN matching any NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.where(nan, 0.0, a).tobytes() == np.where(
        nan, 0.0, b
    ).tobytes()


@pytest.mark.parametrize("tag", TAGS)
def test_alpha_zero_batch_matches_its_rows_beside_alpha_positive(tag):
    """Each row of a batch all at alpha = 0 gets the bits it gets beside
    an alpha = 0.5 row: both take the one masked path, non-finite results
    included. An overflowing u u' sum, which 0 times would make NaN,
    leaves an alpha = 0 Hessian finite. Each point is tried alone and
    with the others."""
    family = FAMILIES[tag]
    x = np.array(tied_contamination(tag).values)[None, :]
    lnx = np.log(x)
    points = np.array(EDGE_POINTS[tag])
    every = list(range(len(points)))
    for rows in [[row] for row in every] + [every]:
        k = len(rows)
        weights = np.full((k + 1, x.size), 1.0 / x.size)
        with np.errstate(all="ignore"):
            alone = _weighted_terms(
                family, _AlphaTerms(np.zeros(k)), x, lnx, weights[:k], points[rows]
            )
            beside = _weighted_terms(
                family,
                _AlphaTerms(np.append(np.zeros(k), 0.5)),
                x,
                lnx,
                weights,
                np.vstack([points[rows], THETA[tag]]),
            )
        for got, want in zip(alone, beside):
            assert same_bits(got, want[:k])
        hess = alone[2]
        assert np.isfinite(hess).all(axis=(1, 2)).tolist() == [
            row < FINITE_HESSIAN[tag] for row in rows
        ]


@pytest.mark.parametrize("tag", TAGS)
def test_alpha_zero_rows_read_only_the_terms(tag):
    """With a tilted law whose M and moments are all NaN, an alpha = 0
    row, in a batch all at alpha = 0 or beside an alpha = 0.5 row, still
    gets H = -sum w ln f, gradient -sum w u and Hessian -sum w du from
    family.terms alone, bit for bit (a du entry constant in x times sum
    w): the masks alone keep it off the tilted law."""
    family = FAMILIES[tag]

    def tilted(v, al):
        return tuple(None if t is None else np.full_like(t, np.nan) for t in family.tilted(v, al))

    broken = dataclasses.replace(family, tilted=tilted)
    x = np.array(tied_contamination(tag).values)[None, :]
    lnx = np.log(x)
    points = np.array(EDGE_POINTS[tag][: FINITE_HESSIAN[tag]] + [THETA[tag]])
    k = len(points)
    weights = np.full((k, x.size), 1.0 / x.size)
    lnf, u, du = family.terms(tuple(points.T[:, :, None]), x, lnx)
    want_hess = np.empty((k, len(u), len(u)))
    for i, row in enumerate(du):
        for j, d in enumerate(row):
            sums = weights.sum(axis=1) * d[:, 0] if d.shape[-1] == 1 else (weights * d).sum(axis=1)
            want_hess[:, i, j] = -sums
    want = (
        -(weights * lnf).sum(axis=1),
        -np.stack([(weights * uq).sum(axis=1) for uq in u], axis=1),
        want_hess,
    )
    with np.errstate(all="ignore"):
        alone = _weighted_terms(broken, _AlphaTerms(np.zeros(k)), x, lnx, weights, points)
        beside = _weighted_terms(
            broken,
            _AlphaTerms(np.append(np.zeros(k), 0.5)),
            x,
            lnx,
            np.vstack([weights, weights[:1]]),
            np.vstack([points, THETA[tag]]),
        )
    assert np.isnan(beside[0][k])
    for got in (alone, [term[:k] for term in beside]):
        for have, expect in zip(got, want):
            np.testing.assert_array_equal(have, expect)
        assert np.isfinite(got[2]).all()


def test_no_kernel_call_on_zero_rows(monkeypatch):
    """A gamma fit at alpha = 0.9 of shape-0.15 data, where a trial often
    crosses the shape floor, halves such a step without calling the
    kernel: no call gets zero rows, and the fit keeps the point and the
    23 evaluations it had when such rounds called the kernel on no rows."""
    family = FAMILIES["gamma"]
    xs = _sorted_values(sample_family(family, ParamVector(family, (0.15, 1.0)), 60, seed=0), 2)
    rows = []

    def counting(family, al, x, lnx, weights, theta):
        rows.append(theta.shape[0])
        return _weighted_terms(family, al, x, lnx, weights, theta)

    monkeypatch.setattr(estimator, "_weighted_terms", counting)
    res = fit(family, 0.9, xs)
    assert min(rows) == 1 and len(rows) == res.evaluations + 1
    assert (res.converged, res.evaluations) == (True, 23)
    assert res.theta_hat.values == pytest.approx((0.5278303750525678, 121061.05817538536), rel=1e-12)


def test_one_failing_row_leaves_the_others_bitwise():
    """A row whose objective is infinite fails as its fit would, and the
    other 20 alphas of the batch are still their one-row fits."""
    gamma = FAMILIES["gamma"]

    def tilted(v, al):
        mass, *moments = gamma.tilted(v, al)
        return np.where(al.alpha == 0.5, np.inf, mass), *moments

    broken = dataclasses.replace(gamma, tilted=tilted)
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
    floor of 0.5. The rows that hold out the smallest value, 2e-11, end
    unsolved at alpha 0.6-1 (gamma) and 0.55-0.9 (Weibull), although
    each of their objectives has a pd minimum, with a rate 9-33 times
    below the fit's: a solver defect, not a sample without an optimum."""
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


def eigh_step(grad, hess):
    """The reference Newton step and reach, from LAPACK's
    eigendecomposition: each eigenvalue lambda of a Hessian that is not
    positive definite becomes max(|lambda|, 1e-8 max|lambda|); a
    non-finite row gets the identity."""
    finite = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
    hess = np.where(finite[:, None, None], hess, np.eye(grad.shape[1]))
    lam, vec = np.linalg.eigh(hess)
    top = np.abs(lam).max(axis=1, keepdims=True)
    finite &= top[:, 0] > 0.0
    pd = finite & (lam[:, 0] > 0.0)
    lam = np.where(pd[:, None], lam, np.maximum(np.abs(lam), 1e-8 * top))
    with np.errstate(all="ignore"):
        coef = np.einsum("rij,ri->rj", vec, grad) / lam
        reach = (vec * vec / lam[:, None, :]).sum(axis=2).max(axis=1)
    return np.einsum("rij,rj->ri", vec, coef), finite, pd, reach


# One Hessian row: its kind, eigenvalue magnitudes within a factor 1e3 of
# each other (away from the pd margin), their signs, its rotation angle,
# its scale, its gradient and its skew s. The row is D H D with D =
# diag(1, 10^s) and its gradient D g, as in a (shape, rate) fit to data
# of size 10^s: eigenvalues up to 10^16 apart while the step, read in
# D's units, stays well conditioned.
HESSIAN_ROWS = st.tuples(
    st.sampled_from(["eigen", "eigen", "eigen", "zero", "nan", "inf"]),
    st.lists(st.floats(-3.0, 0.0), min_size=2, max_size=2),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2),
    st.floats(-math.pi, math.pi),
    st.floats(-100.0, 100.0),
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
    st.floats(-8.0, 8.0),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=st.sampled_from([1, 2]), rows=st.lists(HESSIAN_ROWS, min_size=1, max_size=6))
def test_closed_form_step_matches_eigh(p, rows):
    """_newton_step's closed-form eigenvalues give eigh's flags on every
    row, pd, indefinite, zero or not finite, however badly scaled, and its
    step to 1e-12 relative, in D's units, and its reach (the largest
    diagonal entry of H's inverse) to 1e-12 relative on every finite row."""
    hess, grad, skew = [], [], []
    for kind, logs, signs, phi, log_scale, g, log_skew in rows:
        lam = np.array(signs[:p]) * 10.0 ** np.array(logs[:p]) * 10.0**log_scale
        turn = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])[:p, :p]
        d = np.array([1.0, 10.0**log_skew])[:p]
        h = d[:, None] * (turn @ np.diag(lam) @ turn.T) * d
        h = 0.5 * (h + h.T)
        if kind == "zero":
            h = np.zeros((p, p))
        elif kind in ("nan", "inf"):
            h[p - 1, 0] = h[0, p - 1] = math.nan if kind == "nan" else math.inf
        hess.append(h)
        grad.append(d * g[:p])
        skew.append(d)
    hess, grad, skew = np.array(hess), np.array(grad), np.array(skew)
    with np.errstate(all="ignore"):
        step, finite, pd, reach = _newton_step(grad, hess)
    want, want_finite, want_pd, want_reach = eigh_step(grad, hess)
    assert finite.tolist() == want_finite.tolist()
    assert pd.tolist() == want_pd.tolist()
    for got, ref, d in zip(step[finite], want[finite], skew[finite]):
        assert np.abs(d * (got - ref)).max() <= 1e-12 * np.abs(d * ref).max()
    np.testing.assert_allclose(reach[finite], want_reach[finite], rtol=1e-12)


@pytest.mark.parametrize("corr", [0.5, 0.99, -0.999])
@pytest.mark.parametrize("skew", [1e7, 1e10])
def test_closed_form_step_matches_eigh_on_a_skewed_hessian(skew, corr):
    """H = [[1, b], [b, skew^2]] with b = corr skew, nearly singular as
    |corr| nears 1: the smaller eigenvalue, 1 - corr^2 to first order,
    is 1e14 and more below the larger, and must keep its own digits."""
    hess = np.array([[[1.0, corr * skew], [corr * skew, skew * skew]]])
    grad = np.array([[1.0, 2.0 * skew]])
    step, finite, pd, _ = _newton_step(grad, hess)
    want, _, _, _ = eigh_step(grad, hess)
    assert finite.all() and pd.all()
    d = np.array([1.0, skew])
    assert np.abs(d * (step - want)).max() <= 1e-9 * np.abs(d * want).max()


@pytest.mark.parametrize("size", [1e7, 1e8, 1e10])
@pytest.mark.parametrize("tag", ["gamma", "weibull"])
def test_large_data_fits_and_loo_grid_are_solved(tag, size):
    """Data near 1e7-1e10 give (shape, rate) Hessians whose eigenvalues
    lie 1e14 and more apart. Every grid fit and every leave-one-out row
    is still solved, at the unit-scale fit's shape and its rate / size."""
    family = FAMILIES[tag]
    xs = _sorted_values(sample_family(family, ParamVector(family, (2.0, 1.0)), 60, seed=1), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = fit_alphas(family, COARSE_GRID, xs)
        fits = fit_alphas(family, COARSE_GRID, size * xs)
    assert all(res.converged for res in base + fits)
    for res, ref in zip(fits, base):
        got = np.array(res.theta_hat.values) * (1.0, size)
        assert np.allclose(got, ref.theta_hat.values, rtol=1e-10, atol=0.0)
    theta, solved = _loo_points(family, COARSE_GRID, size * xs, [res.theta_hat.values for res in fits])
    assert solved.all()
    ref, _ = _loo_points(family, COARSE_GRID, xs, [res.theta_hat.values for res in base])
    assert np.allclose(theta * (1.0, size), ref, rtol=1e-10, atol=0.0)


def scripted_kernel(monkeypatch, script):
    """Make the kernel take a one-row, one-parameter objective whose k-th
    evaluation gives script[k] = (H, gradient, Hessian), the last entry
    repeating, at H's scale 1; returns the list of points it is taken at."""
    points = []

    def terms(family, al, x, lnx, weights, theta):
        points.append(float(theta[0, 0]))
        h, g, hess = script[min(len(points), len(script)) - 1]
        return np.array([h]), np.array([[g]]), np.array([[[hess]]]), np.array([1.0])

    monkeypatch.setattr(estimator, "_weighted_terms", terms)
    return points


# (script from the point 1, points evaluated). The second step of every
# script but the first is 1e-8, above the tolerance 1e-13 |theta|, while its
# decrement over the first one's (0.25), times its own size at H = 1,
# predicts a next step of 4e-24.
STOPPING_SCRIPTS = {
    # no previous step: a first step above the tolerance is always taken
    "first step": ([(0.0, 1e-8, 1.0), (-1.0, 0.0, 1.0)], [1.0, 1.0 - 1e-8]),
    # after a full step at a pd Hessian the prediction stops the row
    "full pd step": ([(0.0, 0.5, 1.0), (-1.0, 1e-8, 1.0)], [1.0, 0.5]),
    # the step to 0.5 does not lower H, so 0.75 is reached by a halved one
    "halved step": (
        [(0.0, 0.5, 1.0), (1.0, 0.0, 1.0), (-1.0, 1e-8, 1.0), (-2.0, 0.0, 1.0)],
        [1.0, 0.5, 0.75, 0.75 - 1e-8],
    ),
    # the step to 0.5 is a full one, at a Hessian that is not pd
    "step off pd": (
        [(0.0, 0.5, -1.0), (-1.0, 1e-8, 1.0), (-2.0, 0.0, 1.0)],
        [1.0, 0.5, 0.5 - 1e-8],
    ),
}


@pytest.mark.parametrize("case", sorted(STOPPING_SCRIPTS))
def test_only_a_full_pd_step_predicts_the_next(case, monkeypatch):
    """A row stops when its step is below the tolerance, or when the next
    step predicted from the squared contraction, its Newton decrement
    over that of the step that brought it there, is. Only a full step at
    a pd Hessian counts as that last step: with none, as at the first
    evaluation or after a halved step or one off pd, the row takes the
    evaluation that the prediction would save. A solved row takes its
    last step."""
    script, want = STOPPING_SCRIPTS[case]
    points = scripted_kernel(monkeypatch, script)
    theta, solved, evals = estimator._newton_rows(
        FAMILIES["exponential"], [0.5], np.array([1.0, 2.0]), np.full((1, 2), 0.5), [[1.0]]
    )
    assert points == want
    assert solved.tolist() == [True] and evals.tolist() == [len(want)]
    assert theta[0, 0] == want[-1] - script[len(want) - 1][1]


def solve_logged(monkeypatch, run):
    """Every _newton_rows call that run() makes: (family, alphas, values,
    weights, theta, solved)."""
    calls = []
    solve = estimator._newton_rows

    def logged(family, alphas, values, weights, starts):
        theta, solved, evals = solve(family, alphas, values, weights, starts)
        calls.append((family, alphas, values, weights, theta, solved))
        return theta, solved, evals

    monkeypatch.setattr(estimator, "_newton_rows", logged)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run()
    return calls


def log_mean_near(shift, n=64):
    """exp(z - mean z + shift) for a seeded standard normal z: ln x has mean shift."""
    z = np.random.default_rng(5).standard_normal(n)
    return np.exp(z - z.mean() + shift)


FIXED_POINT_RUNS = {
    **{
        f"refined tune {tag}": lambda family=FAMILIES[tag], theta=THETA[tag]: select_alpha(
            family, sample_family(family, ParamVector(family, theta), 64, seed=0)
        )
        for tag in TAGS
    },
    "refined tune weibull, contaminated": lambda: select_alpha(
        FAMILIES["weibull"], tied_contamination("weibull", seed=1)
    ),
    "bootstrap gamma": lambda: bootstrap_se(
        FAMILIES["gamma"], 0.5, tied_contamination("gamma"), B=100, seed=3
    ),
    **{
        f"refined tune lognormal, log-mean {shift:g}": lambda shift=shift: select_alpha(
            FAMILIES["lognormal"], log_mean_near(shift)
        )
        for shift in (0.0, 1e-9, -3e-6, 0.01)
    },
}


@pytest.mark.parametrize("run", sorted(FIXED_POINT_RUNS))
def test_solved_rows_are_fixed_points(run, monkeypatch):
    """A row stopped on its predicted step is still solved to rounding:
    one more evaluation at its point, full-sample fits, held-out rows and
    bootstrap replicates alike, gives a step at a pd Hessian no larger
    than 2e-12 |theta|, a log-mean near 0 included. On the contaminated
    Weibull draw, predicting the next step's largest entry from the
    step's own largest entry, not from its norm in H's metric, leaves
    held-out rows up to 6e-12 |theta| short."""
    calls = solve_logged(monkeypatch, FIXED_POINT_RUNS[run])
    assert calls
    for family, alphas, values, weights, theta, solved in calls:
        assert solved.any()
        x = np.atleast_2d(values)
        x = x[solved] if x.shape[0] > 1 else x
        with np.errstate(all="ignore"):
            _, grad, hess, _ = _weighted_terms(
                family, _AlphaTerms(np.asarray(alphas)[solved]), x, np.log(x),
                weights[solved], theta[solved],
            )
        step, _, pd, _ = _newton_step(grad, hess)
        assert pd.all()
        size = np.abs(step).max(axis=1) / np.abs(theta[solved]).max(axis=1)
        assert size.max() <= 2e-12
