"""Tests for sandwich variances, efficiency tables, and influence functions.

The closed forms are checked against independent quadrature built here
from the density and score alone, against frozen Monte-Carlo moments,
and against spot values computed by hand.
"""

import io
import math

import numpy as np
import pytest

from dpdfit.asymptotics import (
    _invert_spd,
    are,
    asymptotic_se,
    if_supremum,
    influence_function,
    sandwich,
)
from dpdfit.errors import DomainError, FitError, SingularInformationError
from dpdfit.estimator import FitResult
from dpdfit.families import FAMILIES, ParamVector, density, quantile, score
from quadrature import integrate_halfline
from reference_values import (
    IF_GROWTH_RATIOS,
    IF_SPOTS,
    MC_GAMMA_5_005_A05,
    REFERENCE_ARE,
    SANDWICH_SPOTS,
    TABULATED_ARE,
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


def quadrature_sandwich(pv, alpha):
    """Independent J, K, xi from direct integrals of score and density."""
    p = pv.family.param_count

    def entry(i, j, power):
        value, _ = integrate_halfline(
            lambda x: np.atleast_1d(score(pv, x))[i]
            * np.atleast_1d(score(pv, x))[j]
            * density(pv, x) ** power
        )
        return value

    def xi_entry(i):
        value, _ = integrate_halfline(
            lambda x: np.atleast_1d(score(pv, x))[i] * density(pv, x) ** (1.0 + alpha)
        )
        return value

    J = np.array([[entry(i, j, 1.0 + alpha) for j in range(p)] for i in range(p)])
    K_raw = np.array(
        [[entry(i, j, 1.0 + 2.0 * alpha) for j in range(p)] for i in range(p)]
    )
    xi = np.array([xi_entry(i) for i in range(p)])
    return J, K_raw - np.outer(xi, xi), xi


class TestSandwich:
    def test_exponential_alpha_zero_is_fisher(self):
        sw = sandwich(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 0.0)
        assert sw.J[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sw.K[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sw.xi[0] == pytest.approx(0.0, abs=1e-12)
        assert sw.avar[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_exponential_closed_form_arithmetic(self):
        lam, alpha = 2.0, 0.5
        sw = sandwich(EXPONENTIAL, ParamVector(EXPONENTIAL, (lam,)), alpha)
        J = (1 + alpha**2) / (1 + alpha) ** 3 * lam ** (alpha - 2)
        xi = alpha / (1 + alpha) ** 2 * lam ** (alpha - 1)
        K = (1 + (2 * alpha) ** 2) / (1 + 2 * alpha) ** 3 * lam ** (
            2 * alpha - 2
        ) - xi**2
        assert sw.J[0, 0] == pytest.approx(J, rel=1e-12)
        assert sw.xi[0] == pytest.approx(xi, rel=1e-12)
        assert sw.K[0, 0] == pytest.approx(K, rel=1e-12)
        assert sw.avar[0, 0] == pytest.approx(K / J**2, rel=1e-12)

    def test_exponential_closed_forms_match_quadrature(self, rng):
        """Ten random (lambda, alpha) draws, closed form vs quadrature."""
        for _ in range(10):
            lam = rng.uniform(0.2, 5.0)
            alpha = rng.uniform(0.0, 1.0)
            pv = ParamVector(EXPONENTIAL, (lam,))
            sw = sandwich(EXPONENTIAL, pv, alpha)
            Jq, Kq, xiq = quadrature_sandwich(pv, alpha)
            assert sw.J[0, 0] == pytest.approx(Jq[0, 0], abs=1e-7)
            assert sw.K[0, 0] == pytest.approx(Kq[0, 0], abs=1e-7)
            assert sw.xi[0] == pytest.approx(xiq[0], abs=1e-7)

    @pytest.mark.parametrize("key", sorted(SANDWICH_SPOTS, key=str))
    def test_frozen_spot_values(self, key):
        tag, values, alpha = key
        pv = ParamVector(FAMILIES[tag], values)
        sw = sandwich(FAMILIES[tag], pv, alpha)
        spot = SANDWICH_SPOTS[key]
        np.testing.assert_allclose(sw.J, spot["J"], rtol=1e-6)
        np.testing.assert_allclose(sw.K, spot["K"], rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(sw.xi, spot["xi"], rtol=1e-6)

    def test_monte_carlo_moments(self):
        """Closed-form sandwich sits within 3 standard errors of frozen
        10^7-draw Monte-Carlo estimates of every raw moment."""
        sw = sandwich(GAMMA, ParamVector(GAMMA, (5.0, 0.05)), 0.5)
        K_raw = sw.K + np.outer(sw.xi, sw.xi)
        checks = {
            "J_aa": sw.J[0, 0],
            "J_ab": sw.J[0, 1],
            "J_bb": sw.J[1, 1],
            "K_aa": K_raw[0, 0],
            "K_ab": K_raw[0, 1],
            "K_bb": K_raw[1, 1],
            "xi_a": sw.xi[0],
            "xi_b": sw.xi[1],
        }
        for name, got in checks.items():
            mean, se = MC_GAMMA_5_005_A05[name]
            assert abs(got - mean) <= 3.0 * se, name

    def test_structure_invariants(self, rng):
        """J symmetric positive definite, K positive semidefinite,
        avar = J^-1 K J^-1, and xi = 0 at alpha = 0."""
        for tag in FAMILIES:
            pv = ParamVector(FAMILIES[tag], FIG_SETTINGS[tag])
            alpha = rng.uniform(0.1, 1.0)
            sw = sandwich(FAMILIES[tag], pv, alpha)
            np.testing.assert_allclose(sw.J, sw.J.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(sw.J) > 0.0)
            assert np.all(np.linalg.eigvalsh(sw.K) > -1e-10)
            Jinv = np.linalg.inv(sw.J)
            np.testing.assert_allclose(sw.avar, Jinv @ sw.K @ Jinv, rtol=1e-9)
            sw0 = sandwich(FAMILIES[tag], pv, 0.0)
            np.testing.assert_allclose(sw0.xi, 0.0, atol=1e-8)

    def test_validity_guard(self):
        with pytest.raises(Exception):
            sandwich(GAMMA, ParamVector(GAMMA, (0.3, 1.0)), 0.5)


class TestInvertSpd:
    @pytest.mark.parametrize(
        "mat",
        [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, math.nan]], [[-1.0]]],
        ids=["indefinite", "nan", "negative"],
    )
    def test_refuses_a_matrix_not_positive_definite(self, mat):
        with pytest.raises(SingularInformationError, match="J is not positive definite"):
            _invert_spd(mat, "J")

    def test_warns_when_ill_conditioned(self):
        mat = np.diag([1.0, 1e11])
        with pytest.warns(RuntimeWarning, match="J is ill-conditioned .condition number 1.00e"):
            inv = _invert_spd(mat, "J")
        np.testing.assert_allclose(inv, np.diag([1.0, 1e-11]), rtol=1e-12)

    def test_matches_the_general_inverse(self, rng):
        a = rng.standard_normal((3, 3))
        mat = a @ a.T + 3.0 * np.eye(3)
        np.testing.assert_allclose(_invert_spd(mat, "J"), np.linalg.inv(mat), rtol=1e-12)


class TestAsymptoticSe:
    def test_exponential_mle_se(self):
        fr = FitResult(
            family=EXPONENTIAL,
            alpha=0.0,
            theta_hat=ParamVector(EXPONENTIAL, (1.0,)),
            objective=1.0,
            converged=True,
            n_obs=100,
            evaluations=1,
        )
        assert asymptotic_se(fr)[0] == pytest.approx(0.1, abs=1e-10)

    def test_exponential_half_alpha_arithmetic(self):
        lam, alpha, n = 2.0, 0.5, 64
        fr = FitResult(
            family=EXPONENTIAL,
            alpha=alpha,
            theta_hat=ParamVector(EXPONENTIAL, (lam,)),
            objective=0.0,
            converged=True,
            n_obs=n,
            evaluations=1,
        )
        sw = sandwich(EXPONENTIAL, fr.theta_hat, alpha)
        expected = math.sqrt(sw.avar[0, 0] / n)
        assert asymptotic_se(fr)[0] == pytest.approx(expected, rel=1e-12)

    def test_requires_convergence(self):
        fr = FitResult(
            family=EXPONENTIAL,
            alpha=0.0,
            theta_hat=ParamVector(EXPONENTIAL, (1.0,)),
            objective=1.0,
            converged=False,
            n_obs=100,
            evaluations=1,
        )
        with pytest.raises(FitError):
            asymptotic_se(fr)


class TestAre:
    def test_exponential_closed_form(self):
        table = are(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)))
        for alpha, expected in REFERENCE_ARE[("exponential", (1.0,))].items():
            assert table.rows[alpha] == pytest.approx(expected, rel=1e-12)

    def test_exponential_parameter_free(self):
        """The exponential efficiency curve does not depend on lambda."""
        t1 = are(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)))
        t7 = are(EXPONENTIAL, ParamVector(EXPONENTIAL, (7.0,)))
        for alpha in t1.rows:
            assert t1.rows[alpha][0] == pytest.approx(t7.rows[alpha][0], abs=1e-12)

    def test_unit_at_alpha_zero(self):
        for tag in FAMILIES:
            pv = ParamVector(FAMILIES[tag], FIG_SETTINGS[tag])
            table = are(FAMILIES[tag], pv, alphas=(0.0, 0.3))
            np.testing.assert_allclose(table.rows[0.0], 1.0, atol=1e-7)

    def test_strictly_decreasing_in_alpha(self):
        for tag in FAMILIES:
            pv = ParamVector(FAMILIES[tag], FIG_SETTINGS[tag])
            table = are(FAMILIES[tag], pv)
            alphas = sorted(table.rows)
            values = np.array([table.rows[a] for a in alphas])
            assert np.all(np.diff(values, axis=0) < 0.0), tag

    @pytest.mark.parametrize("key", sorted(REFERENCE_ARE, key=str))
    def test_matches_frozen_reference(self, key):
        """Library tables agree with the frozen closed-form values."""
        tag, values = key
        table = are(FAMILIES[tag], ParamVector(FAMILIES[tag], values))
        for alpha, expected in REFERENCE_ARE[key].items():
            got = table.rows[alpha]
            np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_csv_serialization(self):
        table = are(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), alphas=(0.1,))
        buf = io.StringIO()
        table.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "alpha,param,are"
        assert lines[1].startswith("0.1,rate,0.9677")

    def test_rejects_alpha_outside_range(self):
        with pytest.raises(DomainError):
            are(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), alphas=(1.5,))


class TestInfluenceFunction:
    def test_exponential_mle_spots(self):
        pv = ParamVector(EXPONENTIAL, (1.0,))
        assert influence_function(EXPONENTIAL, pv, 0.0, 5.0)[0] == pytest.approx(
            -4.0, abs=1e-12
        )
        assert influence_function(EXPONENTIAL, pv, 0.0, 1.0)[0] == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("key", sorted(IF_SPOTS, key=str))
    def test_frozen_spot_values(self, key):
        tag, values, alpha, y = key
        pv = ParamVector(FAMILIES[tag], values)
        got = influence_function(FAMILIES[tag], pv, alpha, y)
        np.testing.assert_allclose(got, IF_SPOTS[key], rtol=1e-7)

    def test_tail_limit_is_minus_jinv_xi(self):
        """For alpha > 0 the density weight kills the score as y grows,
        leaving IF(inf) = -J^-1 xi."""
        pv = ParamVector(EXPONENTIAL, (1.0,))
        sw = sandwich(EXPONENTIAL, pv, 0.5)
        limit = -sw.xi[0] / sw.J[0, 0]
        got = influence_function(EXPONENTIAL, pv, 0.5, 1e6)[0]
        assert got == pytest.approx(limit, rel=1e-9)

    def test_unbounded_at_alpha_zero_interior_max_at_half(self):
        pv = ParamVector(EXPONENTIAL, (1.0,))
        ys = np.geomspace(0.1, 1e6, 60)
        if0 = np.array([abs(influence_function(EXPONENTIAL, pv, 0.0, y)[0]) for y in ys])
        if5 = np.array([abs(influence_function(EXPONENTIAL, pv, 0.5, y)[0]) for y in ys])
        assert if0[-1] > 1e3 * if0[np.searchsorted(ys, quantile(pv, 0.99))]
        assert np.argmax(if5) < len(ys) - 1
        assert np.isfinite(if5).all()


class TestIfGrowthRatios:
    @pytest.mark.parametrize("key", sorted(IF_GROWTH_RATIOS, key=str))
    def test_matches_frozen_ratio(self, key):
        """norm(IF(1e6 q99)) / norm(IF(q99)) at alpha = 0, per family."""
        tag, values = key
        pv = ParamVector(FAMILIES[tag], values)
        q99 = quantile(pv, 0.99)
        hi = np.linalg.norm(influence_function(FAMILIES[tag], pv, 0.0, 1e6 * q99))
        lo = np.linalg.norm(influence_function(FAMILIES[tag], pv, 0.0, q99))
        assert hi / lo == pytest.approx(IF_GROWTH_RATIOS[key], rel=1e-7)

    @pytest.mark.parametrize("key", sorted(IF_GROWTH_RATIOS, key=str))
    def test_thousandfold_growth_within_six_decades(self, key):
        """Unbounded influence: the norm at 1e6 q99 far exceeds that at q99.

        Exponential, gamma and Weibull scores are polynomial in y, so six
        decades multiply the norm at least a thousandfold. The lognormal
        score is polynomial in z = (ln y - mu)/sigma instead: at alpha = 0,
        J = diag(1, 2)/sigma^2 and u = (z, z^2 - 1)/sigma, so
        IF = sigma (z, (z^2 - 1)/2). For z >= 1 its norm lies between the
        second component, sigma (z^2 - 1)/2, and the sum of both,
        sigma (z^2 + 2z - 1)/2. Six decades move z from z1 at q99 to
        z2 = z1 + ln(1e6)/sigma, so the ratio is at least
        (z2^2 - 1)/(z1^2 + 2 z1 - 1), about 28.6 at (0, 1); a
        thousandfold rise would need some 34 decades. A bounded influence
        function falls far short of this bound (the ratio is below 1 for
        alpha in 0.05-0.5).
        """
        tag, values = key
        pv = ParamVector(FAMILIES[tag], values)
        q99 = quantile(pv, 0.99)
        hi = np.linalg.norm(influence_function(FAMILIES[tag], pv, 0.0, 1e6 * q99))
        lo = np.linalg.norm(influence_function(FAMILIES[tag], pv, 0.0, q99))
        if tag == "lognormal":
            mu, sigma = values
            z1 = (math.log(q99) - mu) / sigma
            z2 = z1 + math.log(1e6) / sigma
            bar = (z2 * z2 - 1.0) / (z1 * z1 + 2.0 * z1 - 1.0)
        else:
            bar = 1e3
        assert hi > bar * lo


class TestIfSupremum:
    def test_finite_for_positive_alpha(self):
        pv = ParamVector(EXPONENTIAL, (1.0,))
        for alpha in (0.1, 1.0):
            assert np.isfinite(if_supremum(EXPONENTIAL, pv, alpha))

    def test_grid_refinement_stable(self):
        """Doubling the grid moves the supremum by less than 0.1%."""
        cases = (
            (EXPONENTIAL, (1.0,), 1.0),
            (WEIBULL, (5.0, 1.0), 0.5),
        )
        for family, values, alpha in cases:
            pv = ParamVector(family, values)
            coarse = if_supremum(family, pv, alpha, grid_points=2000)
            fine = if_supremum(family, pv, alpha, grid_points=4000)
            assert abs(fine - coarse) / coarse < 1e-3

    def test_rejects_alpha_zero(self):
        with pytest.raises(DomainError):
            if_supremum(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 0.0)
