"""Tests for the shared numerical kernels.

Covers the simplex minimizer, bracketed root finding, and CDF
inversion, including the documented error conditions
of each, plus the test suite's own half-line quadrature oracle
(tests/quadrature.py).
"""

import math

import numpy as np
import pytest

from dpdfit.errors import BracketingError, DomainError, InversionError
from dpdfit.families import FAMILIES, ParamVector, cdf, density
from dpdfit.numerics import find_root_bracketed, invert_cdf, minimize
from quadrature import QuadratureError, QuadratureSpec, integrate_halfline
from reference_values import GAMMA_5_1_MEDIAN


class TestIntegrateHalfline:
    def test_unit_exponential_mass(self):
        value, err = integrate_halfline(lambda x: math.exp(-x))
        assert value == pytest.approx(1.0, abs=1e-10)
        assert abs(value - 1.0) <= err + 1e-15

    def test_gamma_two_mass(self):
        value, _ = integrate_halfline(lambda x: x * math.exp(-x))
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_exponential_power_mass(self):
        """With f = density^(1+alpha) at (lambda=1, alpha=0.5) the integral
        is lambda^alpha/(1+alpha) = 2/3."""
        value, _ = integrate_halfline(lambda x: math.exp(-1.5 * x))
        assert value == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_error_estimate_reported(self):
        value, err = integrate_halfline(lambda x: math.exp(-2.0 * x) * x * x)
        assert err >= 0.0
        assert abs(value - 0.25) <= max(err, 1e-12)

    def test_family_densities_integrate_to_one(self, rng):
        """Each family density has unit mass, over 20 random draws."""
        for tag, family in FAMILIES.items():
            for _ in range(20):
                if family.param_count == 1:
                    theta = ParamVector(family, (rng.uniform(0.2, 5.0),))
                elif tag == "lognormal":
                    theta = ParamVector(
                        family,
                        (rng.uniform(-1.0, 2.0), rng.uniform(0.2, 1.5)),
                    )
                else:
                    theta = ParamVector(
                        family,
                        (rng.uniform(0.5, 6.0), rng.uniform(0.05, 4.0)),
                    )
                value, _ = integrate_halfline(lambda x: density(theta, x))
                assert value == pytest.approx(1.0, abs=1e-8), tag

    def test_unreachable_tolerance_raises(self):
        spec = QuadratureSpec(abs_tolerance=1e-300, rel_tolerance=1e-300)
        with pytest.raises(QuadratureError):
            integrate_halfline(lambda x: math.exp(-x), spec)

    def test_failure_carries_best_estimate(self):
        spec = QuadratureSpec(abs_tolerance=1e-300, rel_tolerance=1e-300)
        try:
            integrate_halfline(lambda x: math.exp(-x), spec)
        except QuadratureError as exc:
            assert exc.value == pytest.approx(1.0, abs=1e-8)
            assert exc.err_estimate >= 0.0
        else:
            pytest.fail("expected QuadratureError")

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tolerance=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tolerance=-1e-8)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)


class TestMinimize:
    def test_quadratic_1d(self):
        x, fx, converged = minimize(lambda v: (v[0] - 3.0) ** 2, [0.0])
        assert converged
        assert x[0] == pytest.approx(3.0, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-10)

    def test_separable_quadratic_2d(self):
        x, _, converged = minimize(
            lambda v: (v[0] - 1.0) ** 2 + 10.0 * (v[1] + 2.0) ** 2, [0.0, 0.0]
        )
        assert converged
        assert x[0] == pytest.approx(1.0, abs=1e-5)
        assert x[1] == pytest.approx(-2.0, abs=1e-5)

    def test_rosenbrock(self):
        def rosen(v):
            return (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2

        x, _, _ = minimize(rosen, [-1.2, 1.0])
        assert x[0] == pytest.approx(1.0, abs=1e-4)
        assert x[1] == pytest.approx(1.0, abs=1e-4)

    def test_random_convex_quadratics(self, rng):
        """Recovers the analytic minimizer within 10x the 1e-8 parameter tolerance."""
        for _ in range(10):
            target = rng.uniform(-4.0, 4.0, size=2)
            scale = rng.uniform(0.5, 5.0, size=2)

            def quad(v):
                return float(np.sum(scale * (v - target) ** 2))

            x, _, converged = minimize(quad, target + rng.uniform(-1, 1, size=2))
            assert converged
            np.testing.assert_allclose(x, target, atol=1e-7)

    def test_monotone_improvement(self):
        start = [4.0, -1.0]

        def f(v):
            return float((v[0] + 2.0) ** 2 + (v[1] - 5.0) ** 2)

        _, fx, _ = minimize(f, start)
        assert fx <= f(np.asarray(start))

    def test_nonfinite_start_rejected(self):
        with pytest.raises(DomainError):
            minimize(lambda v: float("nan"), [1.0])

    def test_nonfinite_mid_search_tolerated(self):
        """Points outside the domain read as +inf and are stepped around."""

        def f(v):
            if v[0] < 0:
                return float("inf")
            return (v[0] - 2.0) ** 2

        x, _, _ = minimize(f, [0.5])
        assert x[0] == pytest.approx(2.0, abs=1e-6)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            minimize(lambda v: float(np.sum(v * v)), [1.0, 2.0, 3.0])


class TestFindRootBracketed:
    def test_linear(self):
        assert find_root_bracketed(lambda x: x - 2.0, 0.0, 5.0) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_sqrt_two(self):
        root = find_root_bracketed(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_mean_reciprocal_root(self):
        """The zero of 1/lam - mean(x) for {1,2,3} sits at lam = 0.5."""
        root = find_root_bracketed(lambda lam: 1.0 / lam - 2.0, 0.01, 10.0)
        assert root == pytest.approx(0.5, abs=1e-10)

    def test_endpoint_root(self):
        assert find_root_bracketed(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(BracketingError):
            find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


class TestInvertCdf:
    def test_exponential_median(self):
        x = invert_cdf(lambda t: 1.0 - math.exp(-t), 0.5)
        assert x == pytest.approx(math.log(2.0), abs=1e-9)

    def test_weibull_unit_shape_matches_exponential(self):
        x = invert_cdf(lambda t: 1.0 - math.exp(-t), 0.5)
        w = ParamVector(FAMILIES["weibull"], (1.0, 1.0))
        assert x == pytest.approx(
            invert_cdf(lambda t: cdf(w, t), 0.5), abs=1e-9
        )

    def test_gamma_median(self):
        g = ParamVector(FAMILIES["gamma"], (5.0, 1.0))
        x = invert_cdf(lambda t: cdf(g, t), 0.5)
        assert x == pytest.approx(GAMMA_5_1_MEDIAN, abs=1e-8)

    def test_roundtrip_identity(self):
        """cdf(invert_cdf(p)) = p at the five reference probabilities."""
        e = ParamVector(FAMILIES["exponential"], (0.7,))
        for p in (0.01, 0.1, 0.5, 0.9, 0.99):
            x = invert_cdf(lambda t: cdf(e, t), p)
            assert cdf(e, x) == pytest.approx(p, abs=1e-8)

    def test_rejects_bad_probability(self):
        with pytest.raises(DomainError):
            invert_cdf(lambda t: 1.0 - math.exp(-t), 0.0)
        with pytest.raises(DomainError):
            invert_cdf(lambda t: 1.0 - math.exp(-t), 1.0)

    def test_unreachable_bracket(self):
        with pytest.raises(InversionError):
            invert_cdf(lambda t: 0.0, 0.5)
