"""Tests for the divergence objective and the fit drivers.

Exercises the empirical objective, the estimating-equation residual,
per-family fits at alpha = 0 (maximum likelihood) and alpha > 0, the
observation weights, and the documented degenerate-input errors.
"""

import math

import numpy as np
import pytest

from conftest import as_sample, newton_calls
from dpdfit import dpd_weights
from dpdfit.errors import DomainError, FitError
from dpdfit.estimator import (
    _newton_step,
    _weighted_terms,
    estimating_residual,
    fit,
    objective_h,
    v_alpha,
)
from dpdfit.families import (
    FAMILIES,
    _shape_floor,
    ParamVector,
    quantile,
    score,
)
from dpdfit.uncertainty import sample_family

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


class TestObjectiveH:
    def test_exponential_mle_objective(self):
        sample = as_sample([1.0, 2.0, 3.0])
        value = objective_h(EXPONENTIAL, ParamVector(EXPONENTIAL, (0.5,)), 0.0, sample)
        assert value == pytest.approx(1.0 + math.log(2.0), rel=1e-12)

    def test_exponential_single_point(self):
        sample = as_sample([1.0])
        value = objective_h(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 1.0, sample)
        assert value == pytest.approx(0.5 - 2.0 * math.exp(-1.0), rel=1e-12)

    def test_matches_term_by_term_summation(self):
        theta = ParamVector(GAMMA, (2.0, 1.0))
        sample = sample_family(GAMMA, theta, 50, seed=7)
        expected = sum(v_alpha(theta, 0.3, x) for x in sample.values) / sample.n
        assert objective_h(GAMMA, theta, 0.3, sample) == pytest.approx(
            expected, abs=1e-12
        )

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            objective_h(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 0.0, as_sample([]))


class TestEstimatingResidual:
    def test_zero_at_exponential_mle(self):
        sample = as_sample([1.0, 2.0, 3.0])
        resid = estimating_residual(
            EXPONENTIAL, ParamVector(EXPONENTIAL, (0.5,)), 0.0, sample
        )
        assert abs(resid[0]) < 1e-12

    def test_exponential_hand_value(self):
        """At lambda = 1, alpha = 0.5, x = {1}: the weighted-score term
        vanishes and the integral term is alpha lambda^(alpha-1)/(1+alpha)^2."""
        resid = estimating_residual(
            EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 0.5, as_sample([1.0])
        )
        assert resid[0] == pytest.approx(-2.0 / 9.0, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_small_at_the_fit(self, tag, alpha):
        family = FAMILIES[tag]
        theta = {
            "exponential": (2.0,), "gamma": (3.0, 2.0), "lognormal": (0.5, 0.8), "weibull": (1.5, 2.0)
        }[tag]
        sample = sample_family(family, theta, 120, seed=11)
        result = fit(family, alpha, sample)
        assert result.converged
        resid = estimating_residual(family, result.theta_hat, alpha, sample)
        assert np.max(np.abs(resid)) < 1e-5


class TestFit:
    def test_exponential_mle(self):
        result = fit(EXPONENTIAL, 0.0, as_sample([1.0, 2.0, 3.0]))
        assert result.theta_hat.values[0] == pytest.approx(0.5, rel=1e-12)
        assert result.converged
        assert result.n_obs == 3

    def test_lognormal_mle_closed_form(self):
        sample = as_sample([math.e, math.e, math.e**2])
        result = fit(LOGNORMAL, 0.0, sample)
        mu, sigma = result.theta_hat.values
        assert mu == pytest.approx(4.0 / 3.0, rel=1e-8)
        assert sigma == pytest.approx(math.sqrt(2.0 / 9.0), rel=1e-6)

    def test_lognormal_mle_exact_at_small_scale(self):
        """At alpha = 0 the lognormal fit is (mean, population sd) of ln x
        to rounding, at a small scale too."""
        x = np.asarray(sample_family(LOGNORMAL, (0.5, 0.8), 30, 11).values) * 1e-3
        logs = np.log(x)
        mu, sigma = fit(LOGNORMAL, 0.0, x).theta_hat.values
        assert mu == pytest.approx(float(np.mean(logs)), rel=1e-12, abs=0.0)
        assert sigma == pytest.approx(float(np.std(logs)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_objective_is_h_at_theta_hat(self, tag):
        """The reported objective is H at the returned point, exactly."""
        family = FAMILIES[tag]
        for seed in range(25):
            x = sample_family(family, FIG_SETTINGS[tag], 40, seed).values
            for alpha in (0.0, 0.3, 0.7):
                result = fit(family, alpha, x)
                assert result.objective == objective_h(
                    family, result.theta_hat, alpha, x
                ), (seed, alpha)

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_mle_equivalence(self, tag):
        """alpha = 0 fits solve the likelihood score equations."""
        family = FAMILIES[tag]
        theta0 = ParamVector(family, FIG_SETTINGS[tag])
        for seed in range(5):
            sample = sample_family(family, theta0, 150, seed=seed)
            result = fit(family, 0.0, sample)
            assert result.converged
            if tag == "exponential":
                lam = 1.0 / np.mean(sample.values)
                assert result.theta_hat.values[0] == pytest.approx(lam, rel=1e-6)
            elif tag == "lognormal":
                logs = np.log(sample.values)
                assert result.theta_hat.values[0] == pytest.approx(
                    float(np.mean(logs)), rel=1e-6
                )
                assert result.theta_hat.values[1] == pytest.approx(
                    float(np.std(logs)), rel=1e-6
                )
            else:
                mean_score = np.mean(
                    [score(result.theta_hat, x) for x in sample.values], axis=0
                )
                assert np.max(np.abs(mean_score)) < 1e-6

    def test_objective_improves_on_start(self):
        sample = sample_family(WEIBULL, ParamVector(WEIBULL, (3.0, 0.5)), 80, seed=3)
        start = ParamVector(WEIBULL, (1.0, 1.0))
        result = fit(WEIBULL, 0.5, sample, warm_start=start)
        assert result.objective <= objective_h(WEIBULL, start, 0.5, sample)

    def test_warm_start_agrees_with_cold(self):
        sample = sample_family(GAMMA, ParamVector(GAMMA, (4.0, 2.0)), 100, seed=9)
        cold = fit(GAMMA, 0.4, sample)
        warm = fit(GAMMA, 0.4, sample, warm_start=cold.theta_hat)
        np.testing.assert_allclose(
            warm.theta_hat.values, cold.theta_hat.values, rtol=1e-5
        )

    def test_warm_start_keeps_the_one_shape_margin(self):
        """A warm start's shape is raised to its floor plus 0.1, the margin
        of every start: from 0.07 above the floor the fit is that from 0.1
        above, evaluations included."""
        sample = sample_family(GAMMA, ParamVector(GAMMA, (4.0, 2.0)), 100, seed=9)
        floor = _shape_floor(0.5)
        low, margin = (
            fit(GAMMA, 0.5, sample, warm_start=ParamVector(GAMMA, (floor + gap, 2.0)))
            for gap in (0.07, 0.1)
        )
        assert low == margin

    def test_degenerate_sample_rejected(self):
        with pytest.raises(FitError):
            fit(GAMMA, 0.0, as_sample([2.0, 2.0, 2.0, 2.0]))
        with pytest.raises(FitError):
            fit(LOGNORMAL, 0.5, as_sample([1.5, 1.5, 1.5]))

    def test_too_few_observations_rejected(self):
        with pytest.raises(FitError):
            fit(EXPONENTIAL, 0.0, as_sample([1.0]))
        with pytest.raises(FitError):
            fit(WEIBULL, 0.0, as_sample([1.0, 2.0]))

    def test_alpha_bounds(self):
        sample = as_sample([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            fit(EXPONENTIAL, -0.1, sample)
        with pytest.raises(DomainError):
            fit(EXPONENTIAL, 1.2, sample)


class TestIndefiniteStart:
    """Two gross outliers at alpha = 1 make H non-convex along the way from
    the gamma moment start (at seed 12 the start's Hessian is indefinite);
    Newton must still reach the minimum."""

    # minima of H to 1e-11, from a derivative-free search with restarts
    MINIMA = {
        3: (3.2818618345268513, 0.04480188071536936),
        12: (3.419819847262647, 0.04628339059504059),
    }

    @staticmethod
    def sample(seed):
        x = np.array(sample_family(GAMMA, (4.0, 0.05), 40, seed).values)
        x[:2] = 8.0 * x.mean()
        return x

    @pytest.mark.parametrize("seed", sorted(MINIMA))
    def test_fit_reaches_the_minimum(self, seed):
        result = fit(GAMMA, 1.0, self.sample(seed))
        assert result.converged
        np.testing.assert_allclose(result.theta_hat.values, self.MINIMA[seed], rtol=1e-9)

    def test_start_hessian_is_indefinite(self, monkeypatch):
        """The alpha = 1 start as estimator._fit_rows builds it."""
        x = self.sample(12)[None, :]
        calls = newton_calls(monkeypatch)
        fit(GAMMA, 1.0, x[0])
        (start,) = [call[4] for call in calls]
        weights = np.full(x.shape, 1.0 / x.size)
        _, _, hess, _ = _weighted_terms(GAMMA, 1.0, x, np.log(x), weights, start)
        assert np.linalg.eigvalsh(hess[0])[0] < 0.0

    def test_indefinite_step_descends(self):
        grad = np.array([[1.0, -2.0], [0.3, 0.4]])
        hess = np.array([[[2.0, 0.0], [0.0, -1.0]], [[1.0, 3.0], [3.0, 1.0]]])
        step, finite, pd, _ = _newton_step(grad, hess)
        assert finite.all() and not pd.any()
        assert (np.einsum("ij,ij->i", grad, step) > 0.0).all()


class TestGridOracle:
    """Fits coincide with brute-force minimization of the objective."""

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_matches_grid_search(self, tag):
        family = FAMILIES[tag]
        theta0 = ParamVector(family, FIG_SETTINGS[tag])
        sample = sample_family(family, theta0, 25, seed=21)
        for alpha in (0.1, 0.5, 1.0):
            result = fit(family, alpha, sample)
            center = np.asarray(result.theta_hat.values, dtype=float)
            offsets = np.arange(-5, 6) * 1e-3
            best, best_val = None, np.inf
            if family.param_count == 1:
                grid = [(center[0] * (1.0 + o),) for o in offsets]
            else:
                grid = [
                    (center[0] * (1.0 + oa), center[1] * (1.0 + ob))
                    for oa in offsets
                    for ob in offsets
                ]
            for point in grid:
                value = objective_h(
                    family, ParamVector(family, point), alpha, sample
                )
                if value < best_val:
                    best, best_val = point, value
            np.testing.assert_allclose(best, center, rtol=1.5e-3)


class TestDpdWeights:
    def test_alpha_zero_all_ones(self):
        sample = as_sample([0.4, 1.0, 2.5])
        w = dpd_weights(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 0.0, sample)
        np.testing.assert_allclose(w, 1.0, atol=1e-15)

    def test_exponential_weights_are_density(self):
        sample = as_sample([0.1, 5.0])
        w = dpd_weights(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 1.0, sample)
        np.testing.assert_allclose(
            w, [math.exp(-0.1), math.exp(-5.0)], rtol=1e-12
        )

    def test_outlier_weight_crushed(self):
        """A planted far point gets under a tenth of the median weight."""
        theta0 = ParamVector(GAMMA, (5.0, 1.0))
        base = sample_family(GAMMA, theta0, 100, seed=13)
        outlier = 10.0 * quantile(theta0, 0.99)
        dirty = as_sample(list(base.values) + [float(outlier)])
        result = fit(GAMMA, 0.5, dirty)
        w = dpd_weights(GAMMA, result.theta_hat, 0.5, dirty)
        assert w[-1] < 0.1 * np.median(w[:-1])


class TestOutlierDamping:
    def test_shift_smaller_at_half_than_at_zero(self):
        """Moving one outlier from the 99th to the 99.999th percentile
        moves the alpha = 0.5 fit less than the maximum-likelihood fit."""
        theta0 = ParamVector(EXPONENTIAL, (1.0,))
        base = sample_family(EXPONENTIAL, theta0, 120, seed=17)
        near = as_sample(list(base.values) + [float(quantile(theta0, 0.99))])
        far = as_sample(list(base.values) + [float(quantile(theta0, 0.99999))])
        shifts = {}
        for alpha in (0.0, 0.5):
            t_near = np.asarray(fit(EXPONENTIAL, alpha, near).theta_hat.values)
            t_far = np.asarray(fit(EXPONENTIAL, alpha, far).theta_hat.values)
            shifts[alpha] = float(np.linalg.norm(t_far - t_near))
        assert shifts[0.5] < shifts[0.0]
