"""Tests for the numerical kernels.

Covers CDF inversion, including its documented error conditions, plus
the test suite's own half-line quadrature oracle (tests/quadrature.py).
An array of probabilities is inverted in lockstep; the reference is one
scalar inversion per probability, which it must match bit for bit.
"""

import math
import warnings

import numpy as np
import pytest

from dpdfit.errors import DomainError, InversionError
from dpdfit.families import FAMILIES, ParamVector, cdf, density
from dpdfit.numerics import invert_cdf
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

    @pytest.mark.parametrize("shape", [0.3, 1.0, 5.0, 40.0])
    def test_lockstep_matches_one_probability_at_a_time(self, shape):
        g = ParamVector(FAMILIES["gamma"], (shape, 0.5))
        q = np.concatenate(
            [np.random.default_rng(1).random(100), [1e-12, 1e-6, 1 - 1e-6, 1 - 1e-12]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = invert_cdf(lambda t: cdf(g, t), q)
        want = [invert_cdf(lambda t: cdf(g, t), float(p)) for p in q]
        assert [float(x).hex() for x in got] == [x.hex() for x in want]
        assert isinstance(want[0], float)

    def test_overflowing_bracket_raises_without_numpy_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InversionError):
                invert_cdf(lambda t: np.zeros_like(t), np.array([0.5, 0.7]))

    def test_one_bad_probability_rejects_the_array(self):
        with pytest.raises(DomainError):
            invert_cdf(lambda t: 1.0 - np.exp(-t), np.array([0.2, 1.0, 0.5]))
