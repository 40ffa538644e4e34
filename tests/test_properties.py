"""Invariants the MDPDE inherits from its definition.

Scale equivariance: every family here is a scale family in x, and the
DPD objective of c*x at the scaled parameter is c^-alpha times the
objective of x, so fitting c*x must give rate/c (the lognormal: log
mean + ln c) and leave every shape alone. Permutation invariance: the
objective is a mean over observations and the CVM distance sorts them
first, so the order of the data cannot matter. Units: the CVM distance
compares fitted CDFs, which scale equivariance leaves alone, so tuning
alpha cannot depend on the data's units. The family table's
per-observation entry terms gives ln f, the score u and its Jacobian
together: ln f must be log_density and u the score, each the central
difference of the one before it.

Samples are small (n = 30 for fits, n = 20 for the CVM distance, n = 60
contaminated draws for tuning) and hypothesis runs derandomized.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdfit.estimator import fit
from dpdfit.families import FAMILIES, ParamVector, _mat, log_density, quantile, score
from dpdfit.tuning import cvm_distance, select_alpha
from dpdfit.uncertainty import ContaminationScheme, sample_family, simulate_contaminated

PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)

THETA = {"exponential": (1.0,), "gamma": (2.0, 0.5), "lognormal": (0.5, 0.8), "weibull": (1.5, 0.5)}

# Worst deviation seen over 192 random (seed, scale) pairs at n = 30,
# scales 10^[-3, 3], is 2.4e-8 relative: the lognormal log_sd at
# alpha = 0, whose fit can stop ~3e-8 short of the closed-form MLE.
# Every other family and alpha stays below 1.5e-11. Permuting the same
# samples moved no parameter by more than 4.6e-9.
RTOL = 1e-7

seeds = st.integers(0, 2**16)


def _draw(tag, seed, n):
    return np.array(sample_family(FAMILIES[tag], THETA[tag], n, seed).values)


def _assert_close(got, want):
    for g, w in zip(got, want):
        assert abs(g - w) <= RTOL * max(1.0, abs(w)), (got, want)


@pytest.mark.parametrize("alpha", (0.0, 0.25, 0.5, 1.0))
@pytest.mark.parametrize("tag", tuple(THETA))
@PROPERTY
@given(seed=seeds, log10_scale=st.floats(-3.0, 3.0))
def test_fit_is_scale_equivariant(tag, alpha, seed, log10_scale):
    family = FAMILIES[tag]
    scale = 10.0**log10_scale
    xs = _draw(tag, seed, 30)
    base = fit(family, alpha, xs).theta_hat.values
    scaled = fit(family, alpha, scale * xs).theta_hat.values
    if tag == "lognormal":
        _assert_close(scaled, (base[0] + math.log(scale), base[1]))
    else:
        # the rate, always last, scales by 1/c; a shape does not move
        want = base[:-1] + (base[-1] / scale,)
        _assert_close([s / w for s, w in zip(scaled, want)], [1.0] * len(want))


@pytest.mark.parametrize("alpha", (0.0, 0.25, 0.5, 1.0))
@pytest.mark.parametrize("tag", tuple(THETA))
@PROPERTY
@given(seed=seeds)
def test_fit_is_permutation_invariant(tag, alpha, seed):
    family = FAMILIES[tag]
    xs = _draw(tag, seed, 30)
    shuffled = xs[np.random.default_rng(seed).permutation(xs.size)]
    _assert_close(fit(family, alpha, shuffled).theta_hat.values, fit(family, alpha, xs).theta_hat.values)


def _central_differences(fn, theta):
    """d fn / d theta_k stacked on a last axis, by central differences."""
    cols = []
    for k, h in enumerate(1e-5 * np.maximum(np.abs(theta), 1e-2)):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        cols.append((fn(up) - fn(down)) / (2.0 * h))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("tag", tuple(THETA))
@PROPERTY
@given(seed=seeds, stretch=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2))
def test_terms_are_log_density_score_and_its_jacobian(tag, seed, stretch):
    family = FAMILIES[tag]
    theta = np.array(THETA[tag]) * stretch[: family.param_count]
    pv = ParamVector(family, theta)
    xs = np.array(sample_family(family, pv, 20, seed).values)
    lnf, u, du = family.terms(pv.values, xs, np.log(xs))
    np.testing.assert_array_equal(lnf, log_density(pv, xs))
    u = np.stack(np.broadcast_arrays(*u), axis=-1)
    np.testing.assert_array_equal(u, score(pv, xs))
    for got, of in ((u, log_density), (_mat(du), score)):
        want = _central_differences(lambda t: of(ParamVector(family, t), xs), theta)
        got = np.broadcast_to(got, want.shape)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8 * np.abs(want).max())


@pytest.mark.parametrize("tag", tuple(THETA))
@PROPERTY
@given(seed=seeds, alpha=st.sampled_from((0.0, 0.25, 0.5, 1.0)))
def test_cvm_distance_is_permutation_invariant(tag, seed, alpha):
    # the distance sorts before it fits, so a permutation gives the
    # very same refits and the same value to the last bit
    family = FAMILIES[tag]
    xs = _draw(tag, seed, 20)
    shuffled = xs[np.random.default_rng(seed).permutation(xs.size)]
    assert cvm_distance(family, alpha, shuffled) == cvm_distance(family, alpha, xs)


@pytest.mark.parametrize("tag", tuple(THETA))
def test_cvm_tuning_does_not_depend_on_units(tag):
    # the fitted CDF of s*x at the scaled fit is that of x, so the curve
    # and its argmin cannot depend on the units; over these 60 cases the
    # worst relative deviation is 1.9e-14 and alpha_star never moves
    family = FAMILIES[tag]
    point = 10.0 * float(quantile(ParamVector(family, THETA[tag]), 0.99))
    for seed in range(5):
        scheme = ContaminationScheme(0.1, point, seed=seed)
        xs = np.array(simulate_contaminated(family, THETA[tag], scheme, 60).values)
        base = select_alpha(family, xs, refine=False)
        for s in (25.4, 2.0**10, 1.0 / 25.4):
            scaled = select_alpha(family, s * xs, refine=False)
            assert scaled.alpha_star == base.alpha_star
            assert set(scaled.cvmd_curve) == set(base.cvmd_curve)
            for alpha, value in base.cvmd_curve.items():
                assert scaled.cvmd_curve[alpha] == pytest.approx(value, rel=1e-10, abs=0.0)
