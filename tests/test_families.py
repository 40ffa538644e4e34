"""Tests for the four parametric families.

Checks densities, CDFs, quantiles, scores, the per-observation
divergence terms, and the closed-form mass integrals, plus the
reduction of gamma and Weibull at unit shape to the exponential.
"""

import math
import pickle
import warnings

import numpy as np
import pytest
from scipy import special

from dpdfit import dpd_weights
from dpdfit.asymptotics import are, if_supremum, influence_function, sandwich
from dpdfit.errors import DomainError, DpdValidityError
from dpdfit.estimator import (
    _weighted_terms,
    estimating_residual,
    fit,
    fit_alphas,
    objective_h,
    v_alpha,
)
from dpdfit.families import (
    FAMILIES,
    Family,
    ParamVector,
    _AlphaTerms,
    cdf,
    check_dpd_valid,
    density,
    dpd_mass_integral,
    log_density,
    quantile,
    score,
    weighted_moments,
)
from dpdfit.selection import ric
from dpdfit.tuning import cvm_distance
from dpdfit.uncertainty import bootstrap_se, sample_family
from quadrature import integrate_halfline
from reference_values import GAMMA_5_1_MEDIAN, LOGNORMAL_V_HALF_AT_1

EXPONENTIAL = FAMILIES["exponential"]
GAMMA = FAMILIES["gamma"]
LOGNORMAL = FAMILIES["lognormal"]
WEIBULL = FAMILIES["weibull"]


# Tail probabilities p of the round-trip tests, which check p and 1 - p.
TAIL_PROBS = np.logspace(-12.0, math.log10(0.5), 200)
TAIL_THETAS = {
    "exponential": [(0.5,), (2.0,), (0.02,)],
    "gamma": [(2.0, 0.5), (4.0, 0.05), (0.7, 3.0)],
    "lognormal": [(0.0, 1.0), (4.0, 0.6), (-2.0, 3.0)],
    "weibull": [(1.6, 0.02), (0.5, 2.0), (5.0, 1.0)],
}


def random_param(tag, rng):
    family = FAMILIES[tag]
    if tag == "exponential":
        return ParamVector(family, (rng.uniform(0.2, 5.0),))
    if tag == "lognormal":
        return ParamVector(family, (rng.uniform(-1.0, 2.0), rng.uniform(0.2, 1.5)))
    return ParamVector(family, (rng.uniform(0.6, 6.0), rng.uniform(0.05, 4.0)))


class TestFamilyTable:
    """A Family is identified by its tag and parameter names alone; the
    functions it carries do not enter equality, hashing or repr."""

    @pytest.mark.parametrize("tag", tuple(FAMILIES))
    def test_pickle_round_trip(self, tag):
        family = FAMILIES[tag]
        copy = pickle.loads(pickle.dumps(family))
        assert copy == family and hash(copy) == hash(family)
        pv = ParamVector(copy, (0.5,) * family.param_count)
        assert log_density(pv, 1.0) == log_density(ParamVector(family, pv.values), 1.0)

    def test_identity_fields(self):
        assert repr(GAMMA) == "Family(tag='gamma', param_count=2, param_names=('shape', 'rate'))"
        assert Family("gamma", 2, ("shape", "rate")) == GAMMA
        assert str(WEIBULL) == "weibull"
        assert len({EXPONENTIAL, GAMMA, LOGNORMAL, WEIBULL}) == 4

    def test_mismatched_theta_rejected(self):
        with pytest.raises(DomainError, match="theta is for gamma, expected weibull"):
            sandwich(WEIBULL, ParamVector(GAMMA, (2.0, 1.0)), 0.5)


class TestParamVector:
    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            ParamVector(EXPONENTIAL, (0.0,))
        with pytest.raises(DomainError):
            ParamVector(GAMMA, (1.0, -2.0))
        with pytest.raises(DomainError):
            ParamVector(WEIBULL, (-1.0, 1.0))
        with pytest.raises(DomainError):
            ParamVector(LOGNORMAL, (0.0, 0.0))

    def test_parameters_must_be_finite(self):
        with pytest.raises(DomainError, match="finite"):
            ParamVector(GAMMA, (1.0, math.nan))

    def test_log_mean_unrestricted(self):
        pv = ParamVector(LOGNORMAL, (-3.0, 1.0))
        assert pv.values == (-3.0, 1.0)

    def test_param_count_enforced(self):
        with pytest.raises(DomainError):
            ParamVector(EXPONENTIAL, (1.0, 2.0))
        with pytest.raises(DomainError):
            ParamVector(GAMMA, (2.0,))

    def test_registry_metadata(self):
        assert EXPONENTIAL.param_count == 1
        for family in (GAMMA, LOGNORMAL, WEIBULL):
            assert family.param_count == 2
        assert set(FAMILIES) == {"exponential", "gamma", "lognormal", "weibull"}

    def test_dpd_validity_boundary(self):
        """Shape must exceed alpha/(1+alpha) for gamma and Weibull."""
        with pytest.raises(DpdValidityError):
            check_dpd_valid(ParamVector(GAMMA, (0.2, 1.0)), 0.5)
        with pytest.raises(DpdValidityError):
            check_dpd_valid(ParamVector(GAMMA, (1.0 / 3.0, 1.0)), 0.5)
        with pytest.raises(DpdValidityError):
            check_dpd_valid(ParamVector(WEIBULL, (0.25, 1.0)), 0.5)
        check_dpd_valid(ParamVector(GAMMA, (0.34, 1.0)), 0.5)
        check_dpd_valid(ParamVector(LOGNORMAL, (0.0, 0.3)), 1.0)

    def test_dpd_validity_names_the_alpha_checked(self):
        """The sandwich checks the floor at 2 alpha; its refusal names that
        alpha, not the one the criterion was asked at."""
        sample = sample_family(GAMMA, ParamVector(GAMMA, (0.5, 1.0)), 200, 3)
        with pytest.raises(DpdValidityError, match=r"= 0\.615385 at alpha = 1\.6;"):
            ric(GAMMA, 0.8, sample)
        with pytest.raises(DpdValidityError, match=r"gamma shape 0\.2 <= .* at alpha = 0\.5;"):
            check_dpd_valid(ParamVector(GAMMA, (0.2, 1.0)), 0.5)


GAMMA_2 = ParamVector(GAMMA, (2.0, 0.5))
X = np.array([0.8, 1.3, 2.1, 2.9, 3.5])
ALPHA_CALLS = {
    "objective_h": lambda a: objective_h(GAMMA, GAMMA_2, a, X),
    "v_alpha": lambda a: v_alpha(GAMMA_2, a, X),
    "dpd_mass_integral": lambda a: dpd_mass_integral(GAMMA_2, a),
    "weighted_moments": lambda a: weighted_moments(GAMMA_2, a),
    "estimating_residual": lambda a: estimating_residual(GAMMA, GAMMA_2, a, X),
    "sandwich": lambda a: sandwich(GAMMA, GAMMA_2, a),
    "influence_function": lambda a: influence_function(GAMMA, GAMMA_2, a, 1.0),
    "dpd_weights": lambda a: dpd_weights(GAMMA, GAMMA_2, a, X),
}


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("name", list(ALPHA_CALLS))
def test_alpha_must_be_finite_and_nonnegative(name, alpha):
    """A NaN, infinite or negative alpha is refused by the one check of
    alpha, not carried on as NaN or reported as a singular J; alpha > 1
    passes it, as the sandwich checks 2 alpha."""
    with pytest.raises(DomainError, match="alpha must be finite and nonnegative"):
        ALPHA_CALLS[name](alpha)
    ALPHA_CALLS[name](1.5)


EVERY_ALPHA_CALL = {
    **ALPHA_CALLS,
    "check_dpd_valid": lambda a: check_dpd_valid(GAMMA_2, a),
    "fit": lambda a: fit(GAMMA, a, X),
    "fit_alphas": lambda a: fit_alphas(GAMMA, [a], X),
    "are": lambda a: are(GAMMA, GAMMA_2, (a,)),
    "if_supremum": lambda a: if_supremum(GAMMA, GAMMA_2, a),
    "bootstrap_se": lambda a: bootstrap_se(GAMMA, a, X, B=2),
    "ric": lambda a: ric(GAMMA, a, X),
    "cvm_distance": lambda a: cvm_distance(GAMMA, a, X),
}


@pytest.mark.parametrize("alpha", [None, "0.5"], ids=["None", "str"])
@pytest.mark.parametrize("name", list(EVERY_ALPHA_CALL))
def test_alpha_must_be_a_real_number(name, alpha):
    """An alpha that is not a real number is refused by the one check of
    alpha, before any comparison or float() could raise a bare TypeError
    or read a string as a number."""
    with pytest.raises(DomainError, match="alpha must be finite and nonnegative real"):
        EVERY_ALPHA_CALL[name](alpha)


class TestDensity:
    def test_spot_values(self):
        e1 = ParamVector(EXPONENTIAL, (1.0,))
        assert density(e1, 1e-12) == pytest.approx(1.0, rel=1e-9)
        g = ParamVector(GAMMA, (1.0, 2.0))
        assert density(g, 1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
        ln = ParamVector(LOGNORMAL, (0.0, 1.0))
        assert density(ln, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
        w = ParamVector(WEIBULL, (2.0, 0.5))
        assert density(w, 1.0) == pytest.approx(0.5 * math.exp(-0.25), rel=1e-12)
        # Gamma(2.5, 1.5) at 2: b^a x^(a-1) e^(-bx) / Gamma(a), Gamma(2.5) = 0.75 sqrt(pi)
        g = ParamVector(GAMMA, (2.5, 1.5))
        want = 1.5**2.5 * 2.0**1.5 * math.exp(-3.0) / (0.75 * math.sqrt(math.pi))
        assert density(g, 2.0) == pytest.approx(want, rel=1e-12)

    def test_rejects_nonpositive_x(self):
        e1 = ParamVector(EXPONENTIAL, (1.0,))
        with pytest.raises(DomainError):
            density(e1, 0.0)
        with pytest.raises(DomainError):
            density(e1, -1.0)

    def test_log_density_consistent(self, rng):
        for tag in FAMILIES:
            pv = random_param(tag, rng)
            for x in rng.uniform(0.05, 5.0, size=5):
                assert math.exp(log_density(pv, x)) == pytest.approx(
                    density(pv, x), rel=1e-12
                )


class TestCdf:
    def test_spot_values(self):
        assert cdf(ParamVector(EXPONENTIAL, (1.0,)), math.log(2.0)) == pytest.approx(
            0.5, abs=1e-12
        )
        assert cdf(
            ParamVector(WEIBULL, (2.0, 1.0)), math.sqrt(math.log(2.0))
        ) == pytest.approx(0.5, abs=1e-12)
        assert cdf(ParamVector(GAMMA, (5.0, 1.0)), GAMMA_5_1_MEDIAN) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_monotone_with_limits(self, rng):
        for tag in FAMILIES:
            pv = random_param(tag, rng)
            xs = np.sort(rng.uniform(1e-3, 50.0, size=100))
            ps = np.array([cdf(pv, x) for x in xs])
            assert np.all(np.diff(ps) >= 0.0)
            assert ps[0] >= 0.0 and ps[-1] <= 1.0
            assert cdf(pv, 1e-9) < 1e-3 or pv.values[-1] > 3.0
            assert cdf(pv, 1e6) > 1.0 - 1e-6


class TestQuantile:
    def test_spot_values(self):
        assert quantile(ParamVector(EXPONENTIAL, (2.0,)), 0.5) == pytest.approx(
            math.log(2.0) / 2.0, rel=1e-12
        )
        assert quantile(ParamVector(LOGNORMAL, (5.0, 0.4)), 0.5) == pytest.approx(
            math.exp(5.0), rel=1e-12
        )
        assert quantile(ParamVector(WEIBULL, (5.0, 1.0)), 0.5) == pytest.approx(
            math.log(2.0) ** 0.2, rel=1e-12
        )

    def test_roundtrip_identity(self, rng):
        for tag in FAMILIES:
            pv = random_param(tag, rng)
            for p in (0.01, 0.1, 0.5, 0.9, 0.99):
                assert cdf(pv, quantile(pv, p)) == pytest.approx(p, abs=1e-8)

    @pytest.mark.parametrize("tag", ["exponential", "lognormal", "weibull"])
    def test_closed_form_tails_round_trip(self, tag):
        """cdf(quantile(p)) is p to 1e-13 relative, for p and for 1 - p,
        p from 1e-12 to 1/2 (worst measured: 1.6e-14, lognormal)."""
        for theta in TAIL_THETAS[tag]:
            pv = ParamVector(FAMILIES[tag], theta)
            for probs in (TAIL_PROBS, 1.0 - TAIL_PROBS):
                assert np.all(np.abs(cdf(pv, quantile(pv, probs)) - probs) <= 1e-13 * probs)

    def test_gamma_tails_meet_the_bisection_contract(self):
        """The gamma quantile bisects until |F - p| <= 1e-10, which is all
        that holds in the tails. Measured on these points: near p = 1e-12
        the round trip misses p by 0.3 to 3.5 times p, and for Gamma(2, 0.5)
        at p = 1 - 2^-53 the quantile is 96.0 where the true one is about
        81. A relative check waits for an exact inverse (gammaincinv)."""
        for theta in TAIL_THETAS["gamma"]:
            pv = ParamVector(GAMMA, theta)
            for probs in (TAIL_PROBS, 1.0 - TAIL_PROBS):
                assert np.all(np.abs(cdf(pv, quantile(pv, probs)) - probs) <= 1e-10)

    def test_vectorized(self):
        pv = ParamVector(EXPONENTIAL, (2.0,))
        qs = quantile(pv, np.array([0.25, 0.5, 0.75]))
        assert qs.shape == (3,)
        assert qs[1] == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)

    def test_rejects_bad_probability(self):
        pv = ParamVector(EXPONENTIAL, (1.0,))
        for bad in (0.0, 1.0, -0.2, float("nan")):
            with pytest.raises(DomainError):
                quantile(pv, bad)


class TestScore:
    def test_exponential_spot_values(self):
        e1 = ParamVector(EXPONENTIAL, (1.0,))
        assert score(e1, 1.0)[0] == pytest.approx(0.0, abs=1e-14)
        assert score(e1, 5.0)[0] == pytest.approx(-4.0, abs=1e-14)

    def test_matches_finite_differences(self, rng):
        """Score components equal central differences of ln f in theta."""
        h = 1e-6
        for tag in FAMILIES:
            for _ in range(10):
                pv = random_param(tag, rng)
                x = float(quantile(pv, rng.uniform(0.05, 0.95)))
                s = np.atleast_1d(score(pv, x))
                vals = np.asarray(pv.values, dtype=float)
                for j in range(len(vals)):
                    up, dn = vals.copy(), vals.copy()
                    step = h * max(1.0, abs(vals[j]))
                    up[j] += step
                    dn[j] -= step
                    fd = (
                        log_density(ParamVector(pv.family, tuple(up)), x)
                        - log_density(ParamVector(pv.family, tuple(dn)), x)
                    ) / (2 * step)
                    assert s[j] == pytest.approx(fd, abs=1e-5), (tag, j)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            score(ParamVector(GAMMA, (2.0, 1.0)), 0.0)

    @pytest.mark.parametrize("tag, values", [
        ("exponential", (1e200,)), ("gamma", (2.5, 1e200)), ("weibull", (1.5, 1e200)),
    ])
    def test_closed_form_at_rate_1e200(self, tag, values):
        """A fit to data near 1e-201 can give a rate past 1e154, whose
        square, in the Jacobian the terms also give, overflows; the score,
        ln f and v_alpha, all read from the terms, are still their closed
        forms, with no error or warning."""
        x = np.array([1e-201, 4e-201, 2.5e-200])
        p = ParamVector(FAMILIES[tag], values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = score(p, x)
            lnf = log_density(p, x)
            v0, v_half = v_alpha(p, 0.0, x), v_alpha(p, 0.5, x)
        b, a = values[-1], values[0]
        lb = [math.log(b) + math.log(xi) for xi in x]
        if tag == "exponential":
            want = [[1.0 / b - xi] for xi in x]
            want_lnf = [math.log(b) - b * xi for xi in x]
            mass = math.sqrt(b) / 1.5
        elif tag == "gamma":
            want = [[math.log(b) - special.digamma(a) + math.log(xi), a / b - xi] for xi in x]
            want_lnf = [a * lbx - math.log(xi) - b * xi - math.lgamma(a) for lbx, xi in zip(lb, x)]
            shape = 1.5 * (a - 1.0) + 1.0
            mass = math.exp(
                math.lgamma(shape) + 0.5 * math.log(b) - 1.5 * math.lgamma(a) - shape * math.log(1.5)
            )
        else:
            rest = [(lbx, 1.0 - math.exp(a * lbx)) for lbx in lb]
            want = [[1.0 / a + lbx * r, a / b * r] for lbx, r in rest]
            want_lnf = [math.log(a * b) + (a - 1.0) * lbx - math.exp(a * lbx) for lbx in lb]
            kap = 0.5 * (a - 1.0) / a
            mass = math.sqrt(a * b) * math.gamma(1.0 + kap) / 1.5 ** (1.0 + kap)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_allclose(lnf, want_lnf, rtol=1e-12)
        np.testing.assert_allclose(v0, -np.array(want_lnf), rtol=1e-12)
        # M - 3 f^(1/2) cancels: its rounding is relative to M
        np.testing.assert_allclose(
            v_half, mass - 3.0 * np.exp(0.5 * np.array(want_lnf)), rtol=1e-12, atol=1e-12 * mass
        )


class TestDpdMassIntegral:
    def test_alpha_zero_is_unit_mass(self, rng):
        for tag in FAMILIES:
            pv = random_param(tag, rng)
            assert dpd_mass_integral(pv, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_exponential_closed_form(self):
        pv = ParamVector(EXPONENTIAL, (2.0,))
        assert dpd_mass_integral(pv, 0.5) == pytest.approx(
            math.sqrt(2.0) / 1.5, rel=1e-12
        )

    def test_gamma_against_quadrature(self):
        pv = ParamVector(GAMMA, (5.0, 0.05))
        value, _ = integrate_halfline(lambda x: density(pv, x) ** 1.3)
        assert dpd_mass_integral(pv, 0.3) == pytest.approx(value, abs=1e-8)

    def test_all_families_against_quadrature(self, rng):
        """Closed forms agree with direct quadrature of f^(1+alpha)."""
        for tag in FAMILIES:
            for _ in range(20):
                pv = random_param(tag, rng)
                alpha = rng.uniform(0.05, 1.0)
                try:
                    check_dpd_valid(pv, alpha)
                except DpdValidityError:
                    continue
                value, _ = integrate_halfline(
                    lambda x: density(pv, x) ** (1.0 + alpha)
                )
                assert dpd_mass_integral(pv, alpha) == pytest.approx(
                    value, abs=1e-7
                ), tag

    def test_validity_violation(self):
        with pytest.raises(DpdValidityError):
            dpd_mass_integral(ParamVector(GAMMA, (0.2, 1.0)), 0.5)


class TestVAlpha:
    def test_alpha_zero_is_negative_log_density(self):
        e1 = ParamVector(EXPONENTIAL, (1.0,))
        assert v_alpha(e1, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_exponential_at_origin_limit(self):
        e1 = ParamVector(EXPONENTIAL, (1.0,))
        assert v_alpha(e1, 1.0, 1e-15) == pytest.approx(-1.5, rel=1e-9)

    def test_lognormal_spot_value(self):
        ln = ParamVector(LOGNORMAL, (0.0, 1.0))
        assert v_alpha(ln, 0.5, 1.0) == pytest.approx(
            LOGNORMAL_V_HALF_AT_1, rel=1e-12
        )

    def test_positive_alpha_form(self, rng):
        """v = mass - (1 + 1/alpha) f^alpha for alpha > 0."""
        for tag in FAMILIES:
            pv = random_param(tag, rng)
            alpha = rng.uniform(0.1, 1.0)
            try:
                check_dpd_valid(pv, alpha)
            except DpdValidityError:
                continue
            x = float(quantile(pv, 0.7))
            expected = dpd_mass_integral(pv, alpha) - (1.0 + 1.0 / alpha) * density(
                pv, x
            ) ** alpha
            assert v_alpha(pv, alpha, x) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            v_alpha(ParamVector(EXPONENTIAL, (1.0,)), 0.5, 0.0)

    def test_alpha_zero_density_underflow_is_infinite(self):
        """At alpha = 0 a density that underflows in log space, ln f =
        -inf, gives the negative log-likelihood +inf, not NaN."""
        p = ParamVector(EXPONENTIAL, (1e300,))
        x = [1e10, 1e-300]
        assert objective_h(EXPONENTIAL, p, 0.0, x) == math.inf
        got = v_alpha(p, 0.0, x)
        assert got[0] == math.inf
        assert got[1] == pytest.approx(1.0 - math.log(1e300), rel=1e-15)

    def test_mass_overflow_is_infinite(self):
        """A lognormal log-sd of 1e200 overflows the sigma^2 term of M:
        v_alpha is +inf, its closed form in floats, with no error or
        warning."""
        p = ParamVector(LOGNORMAL, (0.0, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert v_alpha(p, 0.5, [1.0, 2.0]).tolist() == [math.inf, math.inf]

    def test_alpha_zero_rule_never_reads_minus_infinity(self):
        """The kernel's alpha = 0 rule sums -w ln f over the positively
        weighted values only: ln f = -inf there reads +inf, at weight 0
        nothing, and ln f = +inf or NaN there reads NaN, never -inf, which
        the Newton kernel's descent test would accept. ln f = -x at rate
        1, so x = +inf, -inf and NaN give ln f = -inf, +inf and NaN."""
        inf, nan = math.inf, math.nan
        lnf = np.array([[-inf, -1.0], [-1.0, -inf], [inf, -1.0], [nan, -1.0], [inf, -inf]])
        weights = np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        x = -lnf
        with np.errstate(all="ignore"):  # weights f^0 is NaN where ln f is infinite
            np.testing.assert_array_equal(EXPONENTIAL.terms((1.0,), x, np.log(x))[0], lnf)
            h = _weighted_terms(
                EXPONENTIAL, _AlphaTerms(np.zeros(5)), x, np.log(x), weights, np.ones((5, 1))
            )[0]
        assert h[0] == inf and h[1] == 1.0
        assert np.isnan(h[2:]).all()


class TestUnitShapeReductions:
    """Gamma(1, b) and Weibull(1, b) coincide with Exponential(b)."""

    @pytest.mark.parametrize("other_tag", ["gamma", "weibull"])
    def test_agrees_with_exponential(self, other_tag):
        b = 2.0
        e = ParamVector(EXPONENTIAL, (b,))
        o = ParamVector(FAMILIES[other_tag], (1.0, b))
        xs = np.linspace(0.05, 6.0, 40)
        for x in xs:
            assert density(o, x) == pytest.approx(density(e, x), abs=1e-10)
            assert cdf(o, x) == pytest.approx(cdf(e, x), abs=1e-10)
            for alpha in (0.0, 0.4, 1.0):
                assert v_alpha(o, alpha, x) == pytest.approx(
                    v_alpha(e, alpha, x), abs=1e-10
                )
        for alpha in (0.0, 0.25, 0.5, 1.0):
            assert dpd_mass_integral(o, alpha) == pytest.approx(
                dpd_mass_integral(e, alpha), abs=1e-10
            )
