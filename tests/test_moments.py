"""Tests for the closed-form weighted score moments.

families.weighted_moments is the library's one route to the DPD
integrals M = int f^(1+c), int u u' f^(1+c) and int u f^(1+c). Here it
is held to the test suite's half-line quadrature oracle at random theta
and c in [0, 2], to identities that hold exactly, and a guard checks
that no library path integrates numerically any more.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from dpdfit.asymptotics import are, influence_function, sandwich
from dpdfit.estimator import fit
from dpdfit.families import (
    FAMILIES,
    ParamVector,
    _AlphaTerms,
    _moment_rows,
    log_density,
    score,
    weighted_moments,
)
from dpdfit.selection import select_model
from dpdfit.uncertainty import sample_family
from quadrature import QuadratureSpec, integrate_halfline

EXPONENTIAL = FAMILIES["exponential"]
GAMMA = FAMILIES["gamma"]
LOGNORMAL = FAMILIES["lognormal"]
WEIBULL = FAMILIES["weibull"]

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

c_values = st.floats(0.0, 2.0)


def oracle_moments(pv, c):
    """(M, int u u' f^(1+c), int u f^(1+c)) by quadrature of score and density.

    The positive integrands (M and the diagonal) are held to a relative
    tolerance alone. The signed ones can vanish (xi at c = 0), so they get
    an absolute tolerance on the scale of the largest positive integral.
    The oracle's default absolute tolerance of 1e-10 is not used: on an
    integral of size 1e-4 it can stop early and be off by 0.2% while
    reporting an error of 2e-11.
    """
    p = pv.family.param_count

    def integral(g, abs_tolerance=1e-300):
        spec = QuadratureSpec(abs_tolerance=abs_tolerance, rel_tolerance=1e-10)
        return integrate_halfline(
            lambda x: g(score(pv, x)) * math.exp((1.0 + c) * float(log_density(pv, x))),
            spec,
        )[0]

    mass = integral(lambda u: 1.0)
    second = np.diag([integral(lambda u, i=i: u[i] ** 2) for i in range(p)])
    floor = 1e-11 * max(mass, float(np.max(second)))
    for i, j in zip(*np.triu_indices(p, 1)):
        second[i, j] = second[j, i] = integral(lambda u: u[i] * u[j], floor)
    first = np.array([integral(lambda u, i=i: u[i], floor) for i in range(p)])
    return mass, second, first


def assert_matches_oracle(pv, c):
    got = weighted_moments(pv, c)
    want = oracle_moments(pv, c)
    # one absolute floor for all three, on the scale of the largest integral
    scale = max(want[0], float(np.max(np.diag(want[1]))))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-7, atol=1e-9 * scale)


class TestAgainstQuadrature:
    """Ranges are those where the x = t/(1-t) oracle converges. It misses
    narrow peaks far out (lognormal sigma ~0.1 at mu ~8, Weibull shape
    ~10 at rates ~1e-3 or ~1e2) by more than its own error estimate, and
    gives up on the singular integrands of a shape within ~0.5 of c/(1+c)."""

    @PROPERTY
    @given(log_rate=st.floats(-3.0, 3.0), c=c_values)
    def test_exponential(self, log_rate, c):
        assert_matches_oracle(ParamVector(EXPONENTIAL, (10.0**log_rate,)), c)

    @PROPERTY
    @given(log_excess=st.floats(-0.3, 1.3), log_rate=st.floats(-3.0, 3.0), c=c_values)
    def test_gamma(self, log_excess, log_rate, c):
        shape = c / (1.0 + c) + 10.0**log_excess
        assert_matches_oracle(ParamVector(GAMMA, (shape, 10.0**log_rate)), c)

    @PROPERTY
    @given(mu=st.floats(-3.0, 4.0), sigma=st.floats(0.25, 2.5), c=c_values)
    def test_lognormal(self, mu, sigma, c):
        assert_matches_oracle(ParamVector(LOGNORMAL, (mu, sigma)), c)

    @PROPERTY
    @given(log_excess=st.floats(-0.4, 0.8), log_rate=st.floats(-1.0, 1.0), c=c_values)
    def test_weibull(self, log_excess, log_rate, c):
        shape = c / (1.0 + c) + 10.0**log_excess
        assert_matches_oracle(ParamVector(WEIBULL, (shape, 10.0**log_rate)), c)


def fisher_information(pv):
    """Textbook Fisher information of each family, written out directly."""
    fam, vals = pv.family, pv.values
    if fam is EXPONENTIAL:
        return np.array([[1.0 / vals[0] ** 2]])
    if fam is GAMMA:
        a, b = vals
        return np.array([[float(special.polygamma(1, a)), -1.0 / b], [-1.0 / b, a / b**2]])
    if fam is LOGNORMAL:
        return np.diag([1.0, 2.0]) / vals[1] ** 2
    a, b = vals
    one_minus_gamma = 1.0 - np.euler_gamma
    return np.array(
        [
            [(math.pi**2 / 6.0 + one_minus_gamma**2) / a**2, one_minus_gamma / b],
            [one_minus_gamma / b, (a / b) ** 2],
        ]
    )


class TestExactIdentities:
    @PROPERTY
    @given(
        tag=st.sampled_from(sorted(FAMILIES)),
        first=st.floats(0.3, 8.0),
        second=st.floats(0.1, 5.0),
    )
    def test_alpha_zero_is_unit_mass_fisher_and_zero_xi(self, tag, first, second):
        family = FAMILIES[tag]
        pv = ParamVector(family, (first, second)[: family.param_count])
        mass, j_mat, xi = weighted_moments(pv, 0.0)
        assert mass == 1.0
        np.testing.assert_array_equal(np.abs(xi) <= 1e-15, True)
        np.testing.assert_allclose(j_mat, fisher_information(pv), rtol=1e-12)

    @PROPERTY
    @given(rate=st.floats(0.01, 100.0), c=c_values)
    def test_unit_shape_gamma_and_weibull_are_exponential(self, rate, c):
        mass, second, first = weighted_moments(ParamVector(EXPONENTIAL, (rate,)), c)
        for family in (GAMMA, WEIBULL):
            m, s, f = weighted_moments(ParamVector(family, (1.0, rate)), c)
            assert m == pytest.approx(mass, rel=1e-12)
            assert s[1, 1] == pytest.approx(second[0, 0], rel=1e-12)
            assert f[1] == pytest.approx(first[0], rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("tag", sorted(FAMILIES))
    def test_tilted_law_at_alpha_zero_is_the_model(self, tag):
        """At c = 0 the tilted law f^(1+c)/M is f itself: the table's own
        M is exactly 1, the gamma's over shapes 10^[-1.5, 3] too, since its
        M takes the tilted shape a + c(a - 1), exactly a at c = 0; and the
        mean score is 0."""
        rng = np.random.default_rng(28)
        n = 5000
        draws = {
            "exponential": (10.0 ** rng.uniform(-3.0, 3.0, n),),
            "gamma": (10.0 ** rng.uniform(-1.5, 3.0, n), 10.0 ** rng.uniform(-3.0, 3.0, n)),
            "lognormal": (rng.uniform(-5.0, 5.0, n), 10.0 ** rng.uniform(-2.0, 1.0, n)),
            "weibull": (10.0 ** rng.uniform(-1.0, 1.5, n), 10.0 ** rng.uniform(-3.0, 3.0, n)),
        }
        mass, _, mean, _ = FAMILIES[tag].tilted(draws[tag], _AlphaTerms(0.0))
        np.testing.assert_array_equal(mass, 1.0)
        np.testing.assert_array_less(np.abs(mean), 1e-14)

    def test_exponential_xi_is_its_closed_form(self):
        """M E[u] under the tilted exponential is c lambda^(c-1)/(1+c)^2."""
        rng = np.random.default_rng(5)
        for rate, c in zip(10.0 ** rng.uniform(-100.0, 100.0, 400), rng.uniform(0.0, 2.0, 400)):
            xi = weighted_moments(ParamVector(EXPONENTIAL, (rate,)), c)[2]
            np.testing.assert_allclose(xi, c * rate ** (c - 1.0) / (1.0 + c) ** 2, rtol=1e-12)


GUARD_SETTINGS = {
    "exponential": (0.5,),
    "gamma": (3.0, 0.2),
    "lognormal": (1.0, 0.6),
    "weibull": (1.5, 0.1),
}


@pytest.mark.parametrize("tag", sorted(GUARD_SETTINGS))
def test_library_never_integrates_numerically(tag, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad called")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    with pytest.raises(AssertionError):  # the guard does bite
        integrate_halfline(math.exp)

    family = FAMILIES[tag]
    sample = sample_family(family, GUARD_SETTINGS[tag], 40, seed=11)
    result = fit(family, 0.5, sample)
    theta = result.theta_hat
    sw = sandwich(family, theta, 0.5)
    assert np.all(np.isfinite(sw.avar))
    are(family, theta, alphas=(0.5,))
    influence_function(family, theta, 0.5, sample.values[:5])
    report = select_model(list(FAMILIES.values()), sample)
    assert len(report.records) == len(FAMILIES)


@pytest.mark.parametrize("c", [1.5, 3.0])
def test_lone_moments_are_their_row_of_a_batch(c):
    """weighted_moments at one point is, bit for bit, that point's row of
    a _moment_rows batch whose other rows sit at other c. Where c is one
    float, numpy takes lam ** (c - 1) by its fast path for a scalar
    exponent (a square root at c = 1.5, a square at c = 3), which rounds
    differently from the batch's elementwise power."""
    rng = np.random.default_rng(11)
    rates = np.exp(rng.uniform(-5.0, 5.0, 200))
    theta = np.repeat(rates, 2)[:, None]
    cs = np.column_stack([np.full(rates.size, c), rng.uniform(0.0, 3.0, rates.size)]).ravel()
    batch = _moment_rows(EXPONENTIAL, theta, cs)[:3]
    for r, rate in enumerate(rates.tolist()):
        alone = weighted_moments(ParamVector(EXPONENTIAL, (rate,)), c)
        for got, want in zip(batch, alone):
            assert np.asarray(got[2 * r]).tobytes() == np.asarray(want).tobytes()
