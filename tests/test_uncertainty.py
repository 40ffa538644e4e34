"""Tests for seeded sampling, contamination injection, and the bootstrap.

Sampling is checked against distributional facts (moments, reductions
between families), contamination against its mixture construction, and
bootstrap standard errors against the asymptotic ones they estimate.
Each replicate is a row of draw counts over the sample, solved over the
values it drew: those rows must carry exactly the draw counts of its
stream.
"""

import io
import math

import numpy as np
import pytest

from conftest import as_sample
from dpdfit.asymptotics import asymptotic_se, if_supremum
from dpdfit.cli import emit_plot_data
from dpdfit.dataio import Sample, adjusted_median
from dpdfit.errors import DataError, DomainError, FitError
from dpdfit import estimator
from dpdfit.estimator import _solve_rows, fit
from dpdfit.families import FAMILIES, ParamVector, quantile
from dpdfit.uncertainty import (
    ContaminationScheme,
    _replicate_rows,
    _stream,
    bootstrap_se,
    sample_family,
    simulate_contaminated,
)

EXPONENTIAL = FAMILIES["exponential"]
GAMMA = FAMILIES["gamma"]
LOGNORMAL = FAMILIES["lognormal"]
WEIBULL = FAMILIES["weibull"]

FIG_SETTINGS = {
    "exponential": (1.0,),
    "gamma": (5.0, 1.0),
    "lognormal": (0.0, 1.0),
    "weibull": (5.0, 1.0),
}


class TestSampleFamily:
    def test_exponential_mean_recovers_rate(self):
        # Mean of 1e5 unit-exponential draws; band is roughly +/- 4
        # standard errors of the mean.
        sample = sample_family(EXPONENTIAL, (1.0,), 100_000, seed=11)
        assert 0.987 < np.mean(sample.values) < 1.013

    def test_unit_shape_weibull_draws_equal_exponential(self):
        # Shape-1 Weibull and the exponential share a quantile
        # function, so equal seeds must give identical draws.
        w = sample_family(WEIBULL, (1.0, 2.0), 200, seed=9)
        e = sample_family(EXPONENTIAL, (2.0,), 200, seed=9)
        assert w.values == e.values

    def test_single_draw(self):
        sample = sample_family(GAMMA, (5.0, 1.0), 1, seed=0)
        assert sample.n == 1
        assert sample.values[0] > 0.0

    def test_same_seed_reproduces_same_sample(self):
        a = sample_family(LOGNORMAL, (0.0, 1.0), 50, seed=4)
        b = sample_family(LOGNORMAL, (0.0, 1.0), 50, seed=4)
        assert a.values == b.values

    def test_different_seeds_differ(self):
        a = sample_family(LOGNORMAL, (0.0, 1.0), 50, seed=4)
        b = sample_family(LOGNORMAL, (0.0, 1.0), 50, seed=5)
        assert a.values != b.values

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            sample_family(EXPONENTIAL, (1.0,), 0, seed=0)

    def test_accepts_param_vector(self):
        pv = ParamVector(GAMMA, (5.0, 1.0))
        a = sample_family(GAMMA, pv, 20, seed=2)
        b = sample_family(GAMMA, (5.0, 1.0), 20, seed=2)
        assert a.values == b.values


class TestContaminationScheme:
    def test_rejects_epsilon_ge_half(self):
        with pytest.raises(DomainError, match="epsilon"):
            ContaminationScheme(0.6, 10.0)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(DomainError, match="epsilon"):
            ContaminationScheme(-0.1, 10.0)

    def test_rejects_nonpositive_point(self):
        with pytest.raises(DomainError):
            ContaminationScheme(0.1, 0.0)
        with pytest.raises(DomainError):
            ContaminationScheme(0.1, -3.0)

    def test_rejects_non_numeric_point(self):
        with pytest.raises(DomainError):
            ContaminationScheme(0.1, "far away")

    def test_accepts_displacement_distribution(self):
        pod = ParamVector(EXPONENTIAL, (0.01,))
        scheme = ContaminationScheme(0.1, pod)
        assert scheme.point_or_dist is pod


class TestSimulateContaminated:
    def test_zero_epsilon_matches_clean_sampler(self):
        scheme = ContaminationScheme(0.0, 50.0, seed=7)
        contaminated = simulate_contaminated(GAMMA, (5.0, 1.0), scheme, 300)
        clean = sample_family(GAMMA, (5.0, 1.0), 300, seed=7)
        assert contaminated.values == clean.values

    def test_replacement_count_near_epsilon_n(self):
        # Replacements are Bernoulli(0.05) per observation; at n = 1000
        # the count should sit within 4 binomial sd of 50.
        point = 20.0 * float(quantile(ParamVector(EXPONENTIAL, (1.0,)), 0.99))
        scheme = ContaminationScheme(0.05, point, seed=0)
        sample = simulate_contaminated(EXPONENTIAL, (1.0,), scheme, 1000)
        count = sum(1 for v in sample.values if v == point)
        assert 23 <= count <= 77

    def test_point_contamination_inserts_exact_value(self):
        scheme = ContaminationScheme(0.2, 99.5, seed=3)
        sample = simulate_contaminated(EXPONENTIAL, (1.0,), scheme, 400)
        clean = sample_family(EXPONENTIAL, (1.0,), 400, seed=3)
        replaced = [s for s, c in zip(sample.values, clean.values) if s != c]
        assert replaced
        assert all(v == 99.5 for v in replaced)

    def test_displacement_distribution_draws_vary(self):
        pod = ParamVector(EXPONENTIAL, (0.01,))
        scheme = ContaminationScheme(0.2, pod, seed=3)
        sample = simulate_contaminated(EXPONENTIAL, (1.0,), scheme, 400)
        clean = sample_family(EXPONENTIAL, (1.0,), 400, seed=3)
        replaced = [s for s, c in zip(sample.values, clean.values) if s != c]
        assert len(replaced) > 1
        assert len(set(replaced)) == len(replaced)
        assert all(v > 0.0 for v in replaced)

    def test_contaminated_sample_is_reproducible(self):
        scheme = ContaminationScheme(0.1, 40.0, seed=5)
        a = simulate_contaminated(WEIBULL, (5.0, 1.0), scheme, 250)
        b = simulate_contaminated(WEIBULL, (5.0, 1.0), scheme, 250)
        assert a.values == b.values


class TestBootstrapSe:
    def test_agrees_with_asymptotic_se(self):
        # Exponential at alpha = 0, where the asymptotic variance is
        # exact Fisher information; 1000 replicates should land within
        # 20% of it.
        sample = sample_family(EXPONENTIAL, (1.0,), 500, seed=2)
        result = bootstrap_se(EXPONENTIAL, 0.0, sample, B=1000, seed=2)
        reference = asymptotic_se(result.fit)[0]
        assert abs(result.se[0] - reference) < 0.2 * reference

    def test_robust_fit_has_larger_se_on_clean_data(self):
        # Downweighting costs efficiency when nothing needs it.
        sample = sample_family(EXPONENTIAL, (1.0,), 500, seed=2)
        robust = bootstrap_se(EXPONENTIAL, 0.5, sample, B=200, seed=2)
        mle = bootstrap_se(EXPONENTIAL, 0.0, sample, B=200, seed=2)
        assert robust.se[0] > mle.se[0]

    def test_bit_identical_reproducibility(self):
        sample = sample_family(GAMMA, (5.0, 1.0), 80, seed=6)
        a = bootstrap_se(GAMMA, 0.3, sample, B=25, seed=3)
        b = bootstrap_se(GAMMA, 0.3, sample, B=25, seed=3)
        assert a.se == b.se
        assert a.replicate_estimates == b.replicate_estimates
        assert a.replicate_ids == b.replicate_ids

    def test_replicate_rows_rebuild_the_draw_counts(self, monkeypatch):
        """Row r of the counts is replicate r's draw counts. Its row of the
        solve (estimator._solve_rows, on the drawn supports, as the widest
        leaves out more than a tenth of the sample) holds its distinct
        drawn values in sample order, each weighted by its count / n, then
        zero weight on values it did not draw up to the largest support;
        any chunk of rows is the same."""
        xs = np.array(sample_family(GAMMA, (5.0, 1.0), 60, seed=6).values)
        n, B, seed = xs.size, 30, 4
        drawn_counts = _replicate_rows(xs, B, seed)
        assert drawn_counts.shape == (B, n)
        batches = []
        newton_rows = estimator._newton_rows

        def recording(family, alphas, values, weights, starts):
            assert np.ndim(values) == 2
            batches.append((np.broadcast_to(values, weights.shape), weights))
            return newton_rows(family, alphas, values, weights, starts)

        def solve():
            batches.clear()
            _solve_rows(GAMMA, [0.3], xs, drawn_counts, n, (5.0, 1.0))
            return [np.concatenate(rows) for rows in zip(*batches)]

        monkeypatch.setattr(estimator, "_newton_rows", recording)
        values, weights = solve()
        width = weights.shape[1]
        assert values.shape == weights.shape == (B, width)
        index = {float(v): i for i, v in enumerate(xs)}
        assert len(index) == n
        supports = []
        for r in range(B):
            counts = np.bincount(_stream(seed, r).integers(0, n, size=n), minlength=n)
            np.testing.assert_array_equal(drawn_counts[r], counts)
            support = np.flatnonzero(counts)
            supports.append(support.size)
            k = support.size
            np.testing.assert_array_equal(values[r, :k], xs[support])
            assert np.isin(values[r, k:], np.delete(xs, support)).all()
            np.testing.assert_array_equal(weights[r, k:], 0.0)
            at = [index[float(v)] for v in values[r]]
            np.testing.assert_array_equal(
                np.bincount(at, weights=weights[r], minlength=n), counts / n
            )
        assert width == max(supports) < n
        for rows in (1, 7):
            monkeypatch.setattr(estimator, "_ROW_BUDGET", rows * width)
            chunks = solve()
            assert len(batches) == math.ceil(B / rows)
            np.testing.assert_array_equal(chunks[0], values)
            np.testing.assert_array_equal(chunks[1], weights)

    @pytest.mark.parametrize("tag", sorted(FIG_SETTINGS))
    def test_shared_replicates_agree_across_B(self, tag):
        """Replicate r draws the same values whatever B is; only its row
        width, the largest support among the B draws, may move its last
        bits: at n = 300 the widths are 198 and 203, and the estimates move
        by up to 1.1e-14 relative."""
        family = FAMILIES[tag]
        sample = sample_family(family, FIG_SETTINGS[tag], 300, seed=8)
        small = bootstrap_se(family, 0.5, sample, B=40, seed=9)
        large = bootstrap_se(family, 0.5, sample, B=200, seed=9)
        estimates = dict(zip(large.replicate_ids, large.replicate_estimates))
        assert set(small.replicate_ids) == set(estimates) & set(range(40))
        for rid, est in zip(small.replicate_ids, small.replicate_estimates):
            np.testing.assert_allclose(est, estimates[rid], rtol=1e-12, atol=0.0)

    def test_rejects_single_replicate(self):
        sample = sample_family(EXPONENTIAL, (1.0,), 50, seed=0)
        with pytest.raises(DomainError, match="B"):
            bootstrap_se(EXPONENTIAL, 0.0, sample, B=1, seed=0)

    def test_failure_fraction_attaches_warning(self):
        # Resamples of a near-degenerate triple often collapse to a
        # single repeated value, so many replicates fail to converge.
        sample = as_sample([1.0, 1.0, 2.0])
        with pytest.warns(RuntimeWarning, match="replicates failed"):
            result = bootstrap_se(LOGNORMAL, 0.0, sample, B=40, seed=0)
        assert result.failures == 9
        assert result.warning is not None
        assert len(result.replicate_ids) == 40 - result.failures

    def test_too_few_converged_replicates_raises(self):
        sample = as_sample([1.0, 1.0, 2.0])
        with pytest.raises(FitError, match="converged"):
            bootstrap_se(LOGNORMAL, 0.0, sample, B=2, seed=4)

    def test_replicate_table_structure(self):
        sample = sample_family(GAMMA, (5.0, 1.0), 80, seed=6)
        result = bootstrap_se(GAMMA, 0.3, sample, B=25, seed=3)
        table = np.asarray(result.replicate_estimates)
        assert table.shape == (len(result.replicate_ids), 2)
        assert result.failures + len(result.replicate_ids) == result.B
        assert all(0 <= r < 25 for r in result.replicate_ids)

    def test_estimates_csv_layout(self):
        sample = sample_family(EXPONENTIAL, (1.0,), 60, seed=1)
        result = bootstrap_se(EXPONENTIAL, 0.2, sample, B=10, seed=1)
        buf = io.StringIO()
        result.estimates_to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "replicate,param,value"
        assert len(lines) - 1 == len(result.replicate_ids)

    def test_estimates_csv_writes_to_path(self, tmp_path):
        sample = sample_family(EXPONENTIAL, (1.0,), 60, seed=1)
        result = bootstrap_se(EXPONENTIAL, 0.2, sample, B=10, seed=1)
        target = tmp_path / "replicates.csv"
        result.estimates_to_csv(target)
        assert target.read_text().splitlines()[0] == "replicate,param,value"


class TestReducedBias:
    @pytest.mark.parametrize("tag", sorted(FIG_SETTINGS))
    def test_robust_fit_beats_mle_under_contamination(self, tag):
        # Point contamination far in the tail drags every component of
        # the maximum likelihood estimate; the alpha = 0.5 fit should
        # stay closer to the truth in nearly every trial.
        family = FAMILIES[tag]
        theta0 = FIG_SETTINGS[tag]
        point = 20.0 * float(quantile(ParamVector(family, theta0), 0.99))
        wins = 0
        for trial in range(12):
            scheme = ContaminationScheme(0.05, point, seed=trial)
            sample = simulate_contaminated(family, theta0, scheme, 300)
            mle = fit(family, 0.0, sample)
            robust = fit(family, 0.5, sample)
            if all(
                abs(r - t) < abs(m - t)
                for r, m, t in zip(
                    robust.theta_hat.values, mle.theta_hat.values, theta0
                )
            ):
                wins += 1
        assert wins >= 10


GAMMA_2 = ParamVector(GAMMA, (2.0, 0.5))
SMALL = as_sample([0.8, 1.3, 2.1, 2.9, 3.5, 4.2, 5.8, 7.7])


@pytest.mark.parametrize(
    "call, error, named",
    [
        (lambda: Sample((1.0,), dry_count=math.nan), DataError, "dry_count"),
        (lambda: Sample((1.0,), dry_count=math.inf), DataError, "dry_count"),
        (lambda: Sample((1.0,), dry_count="3"), DataError, "dry_count"),
        (lambda: Sample((1.0,), dry_count=None), DataError, "dry_count"),
        (lambda: sample_family(GAMMA, GAMMA_2, 10, seed=-1), DomainError, "seed"),
        (lambda: sample_family(GAMMA, GAMMA_2, math.nan, seed=0), DomainError, "n >= 1"),
        (lambda: sample_family(GAMMA, GAMMA_2, math.inf, seed=0), DomainError, "n >= 1"),
        (lambda: ContaminationScheme(0.05, 30.0, seed=-1), DomainError, "seed"),
        (lambda: bootstrap_se(GAMMA, 0.5, SMALL, B=10, seed=-1), DomainError, "seed"),
        (lambda: bootstrap_se(GAMMA, 0.5, SMALL, B=math.inf), DomainError, "B >= 2"),
        (lambda: if_supremum(GAMMA, GAMMA_2, 0.5, grid_points=-1), DomainError, "grid_points"),
        (lambda: if_supremum(GAMMA, GAMMA_2, 0.5, grid_points=0), DomainError, "grid_points"),
        (lambda: if_supremum(GAMMA, GAMMA_2, 0.5, grid_points=1), DomainError, "grid_points"),
    ],
    ids=[
        "dry-nan", "dry-inf", "dry-str", "dry-none", "sample-seed", "sample-n-nan", "sample-n-inf",
        "scheme-seed", "bootstrap-seed", "bootstrap-B-inf", "if-grid--1", "if-grid-0", "if-grid-1",
    ],
)
def test_out_of_range_numbers_raise_dpd_errors(call, error, named):
    """Every out-of-range number is refused by the public call it is given
    to, with the package's own error naming it, not one from numpy or
    int()."""
    with pytest.raises(error, match=named):
        call()


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: sample_family(GAMMA, GAMMA_2, 10, seed=3.0), "seed"),
        (lambda: sample_family(GAMMA, GAMMA_2, 2.5, seed=0), "n >= 1"),
        (lambda: sample_family(GAMMA, GAMMA_2, 10.0, seed=0), "n >= 1"),
        (lambda: sample_family(GAMMA, GAMMA_2, "10", seed=0), "n >= 1"),
        (lambda: ContaminationScheme(0.05, 30.0, seed=3.0), "seed"),
        (lambda: ContaminationScheme(0.05, 30.0, seed=None), "seed"),
        (lambda: bootstrap_se(GAMMA, 0.5, SMALL, B=2.5), "B >= 2"),
        (lambda: bootstrap_se(GAMMA, 0.5, SMALL, B=10.0), "B >= 2"),
        (lambda: bootstrap_se(GAMMA, 0.5, SMALL, B=10, seed=3.0), "seed"),
        (lambda: if_supremum(GAMMA, GAMMA_2, 0.5, grid_points=2.5), "grid_points"),
        (lambda: emit_plot_data(fit(GAMMA, 0.5, SMALL), SMALL, bins=2.5), "bins"),
        (lambda: adjusted_median(fit(GAMMA, 0.5, SMALL), dry_count=2.5), "dry_count"),
        (lambda: adjusted_median(fit(GAMMA, 0.5, SMALL), dry_count=math.nan), "dry_count"),
    ],
    ids=[
        "sample-seed-float", "sample-n-fraction", "sample-n-float", "sample-n-str",
        "scheme-seed-float", "scheme-seed-none", "bootstrap-B-fraction", "bootstrap-B-float",
        "bootstrap-seed-float", "if-grid-fraction", "plot-bins-fraction", "median-dry-fraction",
        "median-dry-nan",
    ],
)
def test_counts_and_seeds_must_be_integers(call, named):
    """A count or seed that is not an integer is refused, not truncated
    (2.5 values, replicates, grid points or bins) or passed on to numpy's
    own TypeError or to the quantile's refusal."""
    with pytest.raises(DomainError, match=named):
        call()


def test_numpy_integers_count_and_seed():
    drawn = sample_family(GAMMA, GAMMA_2, np.int64(12), seed=np.uint32(4))
    assert drawn.values == sample_family(GAMMA, GAMMA_2, 12, seed=4).values
    res = bootstrap_se(GAMMA, 0.5, SMALL, B=np.int32(20), seed=np.int64(1))
    assert res.B == 20 and res.se == bootstrap_se(GAMMA, 0.5, SMALL, B=20, seed=1).se
    fitted, sup = fit(GAMMA, 0.5, SMALL), if_supremum(GAMMA, GAMMA_2, 0.5, grid_points=50)
    assert adjusted_median(fitted, np.int64(1)) == adjusted_median(fitted, 1)
    assert if_supremum(GAMMA, GAMMA_2, 0.5, grid_points=np.int64(50)) == sup
    assert emit_plot_data(fitted, SMALL, bins=np.int64(3)) == emit_plot_data(fitted, SMALL, bins=3)
