"""Tests for exact leave-one-out by batched Newton.

tuning.cvm_distance solves all n held-out problems together with the
damped Newton kernel estimator._newton_rows, from the closed-form
gradient and Hessian of the divergence terms. These tests hold the
score Jacobian du/dtheta (dscore) of the family table's terms entry and
the kernel's gradient and Hessian to central differences and each
held-out point to a full refit. Each held-out row starts from its
one-step estimate (estimator._one_step_starts): one Newton step of the
held-out objective from the full-sample fit, or that fit itself where
the step is not usable. A row the guard leaves unsolved is not refit:
it leaves its alpha unscored, and the other alphas of the curve do not
move.
"""

import dataclasses
import math

import numpy as np
import pytest

from dpdfit import estimator, tuning
from dpdfit.errors import FitError, TuningError
from dpdfit.estimator import (
    _one_step_starts,
    _solve_rows,
    _weighted_terms,
    fit,
    fit_alphas,
    objective_h,
)
from dpdfit.families import (
    FAMILIES,
    ParamVector,
    _AlphaTerms,
    _mat,
    _times,
    log_density,
    quantile,
    score,
)
from dpdfit.tuning import COARSE_GRID, _loo_points, _sorted_values, cvm_distance, select_alpha
from dpdfit.uncertainty import ContaminationScheme, sample_family, simulate_contaminated
from quadrature import QuadratureSpec, integrate_halfline

THETA = {
    "exponential": (0.5,),
    "gamma": (5.0, 0.05),
    "lognormal": (2.0, 0.6),
    "weibull": (1.6, 0.02),
}
ALPHAS = (0.0, 0.25, 0.5, 0.9)
TAGS = sorted(THETA)


def contaminated(tag, seed=0, n=30):
    """Sorted n-point sample with 10% of its points at 10x the 99th percentile."""
    family = FAMILIES[tag]
    point = 10.0 * float(quantile(ParamVector(family, THETA[tag]), 0.99))
    sample = simulate_contaminated(
        family, THETA[tag], ContaminationScheme(0.1, point, seed=seed), n
    )
    return _sorted_values(sample, family.param_count)


def held_out_counts(n):
    """Row i counts every value of an n-point sample but the i-th once."""
    return 1 - np.eye(n, dtype=np.uint8)


def held_out_weights(n, i):
    w = np.full((1, n), 1.0 / (n - 1))
    w[0, i] = 0.0
    return w


def steps(theta, rel=1e-5):
    return rel * np.maximum(np.abs(theta), 1e-2)


def du_moments(family, v, al):
    """family.tilted's M and the integrals of u u', u and du/dtheta times
    f^(1+c), each M times its moment under f^(1+c)/M; E[du] is terms' du,
    as the kernel takes it, where tilted gives None because du is
    constant in x (exponential, gamma)."""
    mass, uu, xi, du_mean = family.tilted(v, al)
    if du_mean is None:
        du_mean = np.broadcast_to(_mat(family.terms(v, 1.0, 0.0)[2]), uu.shape)
    return mass, _times(mass, uu), _times(mass, xi), _times(mass, du_mean)


class TestTable:
    @pytest.mark.parametrize("tag", TAGS)
    def test_dscore_matches_central_differences_of_score(self, tag):
        family = FAMILIES[tag]
        theta = np.array(THETA[tag])
        xs = contaminated(tag)
        got = _mat(family.terms(tuple(theta), xs, np.log(xs))[2])
        for k, h in enumerate(steps(theta)):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            diff = (
                score(ParamVector(family, up), xs) - score(ParamVector(family, down), xs)
            ) / (2.0 * h)
            col = np.broadcast_to(got[..., :, k], diff.shape)
            np.testing.assert_allclose(col, diff, rtol=1e-6, atol=1e-8 * np.abs(diff).max())

    @pytest.mark.parametrize("tag", TAGS)
    def test_batched_entries_match_one_point_at_a_time(self, tag):
        """A leading axis of parameter points gives each point's values."""
        family = FAMILIES[tag]
        rng = np.random.default_rng(3)
        points = np.array(THETA[tag]) * rng.uniform(0.8, 1.25, (5, family.param_count))
        xs = contaminated(tag)
        x = xs[:, None]
        v = tuple(points.T)
        al = _AlphaTerms(0.4)
        mass, *moments = du_moments(family, v, al)
        lnf, u, du = family.terms(v, x, np.log(x))
        per_x = {
            "lnf": lnf,
            "score": np.stack(np.broadcast_arrays(*u), axis=-1),
            "dscore": np.broadcast_to(
                _mat(du), x.shape[:1] + mass.shape + (family.param_count,) * 2
            ),
        }
        for r, point in enumerate(points):
            # one point's terms come out as arrays of length 1
            one = tuple(point)
            mass_one, *moments_one = du_moments(family, one, al)
            assert mass[r] == pytest.approx(mass_one[0], rel=1e-13)
            for got, want in zip(moments, moments_one):
                np.testing.assert_allclose(got[r], want[0], rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(
                per_x["lnf"][:, r], family.terms(one, xs, np.log(xs))[0], rtol=1e-13
            )
            np.testing.assert_allclose(
                per_x["score"][:, r], score(ParamVector(family, one), xs), rtol=1e-12, atol=1e-300
            )
            np.testing.assert_allclose(
                per_x["dscore"][:, r],
                np.broadcast_to(
                    _mat(family.terms(one, xs, np.log(xs))[2]), per_x["dscore"][:, r].shape
                ),
                rtol=1e-12,
                atol=1e-300,
            )

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.5])
    def test_tilted_dscore_integral_matches_quadrature(self, tag, c):
        """M times tilted's E[du/dtheta], or M du where du is constant in
        x, is the integral of du/dtheta f^(1+c)."""
        family = FAMILIES[tag]
        pv = ParamVector(family, THETA[tag])
        mass, _, _, du_int = du_moments(family, pv.values, _AlphaTerms(c))
        got = du_int[0]
        # an entry can vanish (the lognormal's cross term at c = 0), so the
        # oracle stops at an absolute floor on the scale of the mass
        spec = QuadratureSpec(abs_tolerance=1e-11 * mass[0], rel_tolerance=1e-10)
        p = family.param_count
        want = np.empty((p, p))
        for i in range(p):
            for j in range(p):
                want[i, j] = integrate_halfline(
                    lambda x: float(_mat(family.terms(pv.values, x, math.log(x))[2])[i, j])
                    * math.exp((1.0 + c) * float(log_density(pv, x))),
                    spec,
                )[0]
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9 * np.abs(want).max())


class TestKernel:
    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_gradient_and_hessian_match_central_differences(self, tag, alpha):
        family = FAMILIES[tag]
        xs = contaminated(tag)
        i = xs.size - 1  # hold out the largest point, an outlier
        rest = np.delete(xs, i)
        # off the optimum, so that no gradient component vanishes
        theta = np.array(fit(family, alpha, rest).theta_hat.values) * (1.03, 0.97)[: family.param_count]
        x = xs[None, :]
        _, grad, hess, _ = _weighted_terms(
            family, _AlphaTerms(alpha), x, np.log(x), held_out_weights(xs.size, i), theta[None, :]
        )

        def h_at(t):
            return objective_h(family, ParamVector(family, t), alpha, rest)

        # steps large enough that H's rounding (1e-16 of its largest
        # terms, which the outliers make large) stays below 1e-7 of the result
        p = family.param_count
        unit = np.eye(p)
        hg, hh = steps(theta, 1e-4), steps(theta, 1e-3)
        num_grad = np.array(
            [(h_at(theta + hg * e) - h_at(theta - hg * e)) / (2.0 * hg @ e) for e in unit]
        )
        num_hess = np.array(
            [
                [
                    (
                        h_at(theta + hh * ea + hh * eb)
                        - h_at(theta + hh * ea - hh * eb)
                        - h_at(theta - hh * ea + hh * eb)
                        + h_at(theta - hh * ea - hh * eb)
                    )
                    / (4.0 * (hh @ ea) * (hh @ eb))
                    for eb in unit
                ]
                for ea in unit
            ]
        )
        np.testing.assert_allclose(grad[0], num_grad, rtol=1e-5)
        np.testing.assert_allclose(hess[0], num_hess, rtol=1e-4, atol=1e-6 * np.abs(num_hess).max())

    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_held_out_points_match_full_refits(self, tag, alpha):
        family = FAMILIES[tag]
        xs = contaminated(tag)
        start = fit(family, alpha, xs).theta_hat.values
        theta, solved = _loo_points(family, (alpha,), xs, [start])
        assert solved.all()
        resid = (np.arange(xs.size) + 0.5) / xs.size - family.cdf(tuple(theta[:, 0].T), xs)
        assert cvm_distance(family, alpha, xs) == float(resid @ resid) / xs.size
        for i in range(xs.size):
            ref = fit(family, alpha, np.delete(xs, i)).theta_hat.values
            np.testing.assert_allclose(theta[i, 0], ref, rtol=1e-9)


class TestOneStepStarts:
    @pytest.mark.parametrize("tag", TAGS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_start_is_one_newton_step_of_the_held_out_objective(self, tag, alpha):
        """Row i's start is the fit less H^-1 g of the objective without
        xs[i], both taken at the fit, here with 1/(n - 1) weights and a
        plain linear solve."""
        family = FAMILIES[tag]
        xs = _sorted_values(clean(tag), family.param_count)
        theta = np.array([fit(family, alpha, xs).theta_hat.values])
        starts = _one_step_starts(family, [alpha], xs, theta, held_out_counts(xs.size), xs.size - 1)
        assert starts.shape == (xs.size, family.param_count)
        for i in range(xs.size):
            weights = held_out_weights(xs.size, i)
            _, grad, hess, _ = _weighted_terms(
                family, _AlphaTerms(alpha), xs[None], np.log(xs)[None], weights, theta
            )
            want = theta[0] - np.linalg.solve(hess[0], grad[0])
            np.testing.assert_allclose(starts[i], want, rtol=1e-9)

    @pytest.mark.parametrize("tag", TAGS)
    def test_grid_takes_at_most_three_evaluations_per_row(self, tag, monkeypatch):
        """On a clean n = 60 draw every row of the 21-alpha leave-one-out
        grid is solved within 3 evaluations, its start's included, and
        fewer than 3 on average; from the full-sample fits the same rows
        take up to 4, and more in all."""
        family = FAMILIES[tag]
        xs = _sorted_values(
            sample_family(family, ParamVector(family, THETA[tag]), 60, seed=0), family.param_count
        )
        n, k = xs.size, len(COARSE_GRID)
        fits = np.array([res.theta_hat.values for res in fit_alphas(family, COARSE_GRID, xs)])
        counts = []
        solve = estimator._newton_rows

        def counted(*args):
            out = solve(*args)
            counts.append(out[2])
            return out

        monkeypatch.setattr(estimator, "_newton_rows", counted)
        _, solved = _loo_points(family, COARSE_GRID, xs, fits)
        one_step = np.concatenate(counts)
        counts.clear()
        _, from_fit, _ = _solve_rows(
            family, COARSE_GRID, xs, held_out_counts(n), n - 1, np.tile(fits, (n, 1))
        )
        from_fit_evals = np.concatenate(counts)
        assert solved.all() and from_fit.all()
        assert one_step.size == n * k and one_step.max() <= 3 and one_step.mean() < 3.0
        assert one_step.sum() < from_fit_evals.sum()

    def test_invalid_start_falls_back_to_the_fit(self):
        """From a rate three times the MLE, the alpha = 0 step of the
        exponential lands at 2 lambda - lambda^2 mean(x without x_i) < 0,
        outside the parameter space: those rows start at the given point
        and are still solved, to the held-out MLE, while the alpha = 0.5
        rows of the same batch start one step away from their fit."""
        family = FAMILIES["exponential"]
        xs = _sorted_values(clean("exponential"), 1)
        bad = 3.0 / xs.mean()
        good = fit(family, 0.5, xs).theta_hat.values[0]
        counts = held_out_counts(xs.size)
        starts = _one_step_starts(family, [0.0, 0.5], xs, [[bad], [good]], counts, xs.size - 1)
        starts = starts.reshape(xs.size, 2)
        assert (starts[:, 0] == bad).all()
        assert (starts[:, 1] != good).all()
        theta, solved = _loo_points(family, (0.0, 0.5), xs, [(bad,), (good,)])
        assert solved.all()
        held_out_mle = [1.0 / np.delete(xs, i).mean() for i in range(xs.size)]
        np.testing.assert_allclose(theta[:, 0, 0], held_out_mle, rtol=1e-12)
        for i in (0, xs.size - 1):
            ref = fit(family, 0.5, np.delete(xs, i)).theta_hat.values
            np.testing.assert_allclose(theta[i, 1], ref, rtol=1e-9)


def clean(tag):
    family = FAMILIES[tag]
    return sample_family(family, ParamVector(family, THETA[tag]), 40, seed=1)


def unsolving(rows, at=None):
    """A stand-in for tuning._loo_points that marks the held-out rows
    `rows` unsolved at the alpha `at`, or at every alpha when at is None."""

    def patched(family, alphas, xs, starts):
        theta, solved = _loo_points(family, alphas, xs, starts)
        for k, alpha in enumerate(alphas):
            if at is None or alpha == at:
                solved[rows, k] = False
        return theta, solved

    return patched


class TestGuard:
    @pytest.mark.parametrize("tag", TAGS)
    def test_seeded_clean_curve_needs_no_fallback(self, tag):
        """Every held-out row is solved, so no grid alpha is left out."""
        result = select_alpha(FAMILIES[tag], clean(tag), refine=False)
        assert set(result.cvmd_curve) == set(COARSE_GRID)

    @pytest.mark.parametrize("tag", TAGS)
    def test_only_the_full_sample_is_fitted(self, tag, monkeypatch):
        family = FAMILIES[tag]
        batches = []

        def counting_batch(family, alphas, sample):
            batches.append(tuple(alphas))
            return fit_alphas(family, alphas, sample)

        monkeypatch.setattr(tuning, "fit_alphas", counting_batch)
        cvm_distance(family, 0.5, clean(tag))
        assert batches == [(0.5,)]

    @pytest.mark.parametrize("tag", TAGS)
    def test_rejected_index_leaves_the_alpha_unscored(self, tag, monkeypatch):
        """The distance equals the one from exact per-point fits; with the
        guard rejecting one index, cvm_distance names that index instead
        of refitting it."""
        family = FAMILIES[tag]
        alpha, rejected = 0.5, 7
        xs = contaminated(tag)
        n = xs.size

        total = 0.0
        for i in range(n):
            loo = fit(family, alpha, np.delete(xs, i))
            resid = (i + 0.5) / n - float(family.cdf(loo.theta_hat.values, xs[i]))
            total += resid * resid
        assert cvm_distance(family, alpha, xs) == pytest.approx(total / n, rel=1e-9)

        monkeypatch.setattr(tuning, "_loo_points", unsolving(rejected))
        with pytest.raises(TuningError, match=f"fit {rejected + 1} of {n} is unsolved at alpha=0.5"):
            cvm_distance(family, alpha, xs)


class TestPartialFailure:
    @pytest.mark.parametrize("tag", TAGS)
    def test_unscored_alpha_leaves_the_rest_bitwise(self, tag, monkeypatch):
        """One unsolved held-out row drops its alpha from the curve; every
        other value, alpha_star and fit_star are those of the full run."""
        family = FAMILIES[tag]
        sample = clean(tag)
        want = select_alpha(family, sample, refine=False)
        dropped = 0.5 if want.alpha_star != 0.5 else 0.55
        monkeypatch.setattr(tuning, "_loo_points", unsolving(3, at=dropped))
        got = select_alpha(family, sample, refine=False)
        assert set(got.cvmd_curve) == set(COARSE_GRID) - {dropped}
        for alpha, value in got.cvmd_curve.items():
            assert value.hex() == want.cvmd_curve[alpha].hex()
        assert (got.alpha_star, got.cvmd_star) == (want.alpha_star, want.cvmd_star)
        assert got.fit_star == want.fit_star
        with pytest.raises(TuningError, match=f"fit 4 of 40 is unsolved at alpha={dropped:g}"):
            cvm_distance(family, dropped, sample)

    @pytest.mark.parametrize("tag", TAGS)
    def test_unscored_refinement_alpha_is_tried_once(self, tag, monkeypatch):
        """An alpha of the k/200 round that cannot be scored is left out of
        the curve and never fitted again; the grid does not move and the
        k/1000 round still runs."""
        family = FAMILIES[tag]
        sample = clean(tag)
        want = select_alpha(family, sample, refine=False)
        k = round(want.alpha_star * 200)
        dropped = (k + 1 if k < 200 else k - 1) / 200
        batches = []

        def counting_batch(family, alphas, sample):
            batches.append(tuple(alphas))
            return fit_alphas(family, alphas, sample)

        monkeypatch.setattr(tuning, "fit_alphas", counting_batch)
        monkeypatch.setattr(tuning, "_loo_points", unsolving(3, at=dropped))
        got = select_alpha(family, sample)
        tried = [alpha for alphas in batches for alpha in alphas]
        assert tried.count(dropped) == 1 and dropped in batches[1]
        assert set(got.cvmd_curve) == set(tried) - {dropped}
        for alpha in COARSE_GRID:
            assert got.cvmd_curve[alpha].hex() == want.cvmd_curve[alpha].hex()
        assert len(batches) == 3 and batches[2]
        assert all(round(a * 1000) / 1000 == a != round(a * 200) / 200 for a in batches[2])

    def test_failed_full_sample_fit_leaves_its_alpha_unscored(self):
        """A full-sample fit that fails (its objective is infinite at that
        alpha) drops its alpha; the other alphas are scored as before, and
        with every fit failing (a start that overflows the objective) no
        alpha is scored."""
        gamma = FAMILIES["gamma"]
        sample = clean("gamma")
        want = select_alpha(gamma, sample, refine=False)

        def breaking(at):
            if at is None:
                return dataclasses.replace(gamma, start=lambda xs: (1e308, 1e308))

            def tilted(v, al):
                mass, *moments = gamma.tilted(v, al)
                return np.where(al.alpha == at, np.inf, mass), *moments

            return dataclasses.replace(gamma, tilted=tilted)

        got = select_alpha(breaking(0.5), sample, refine=False)
        assert set(got.cvmd_curve) == set(COARSE_GRID) - {0.5}
        for alpha, value in got.cvmd_curve.items():
            assert value.hex() == want.cvmd_curve[alpha].hex()
        with pytest.raises(FitError, match="objective not finite"):
            cvm_distance(breaking(0.5), 0.5, sample)
        with pytest.raises(TuningError, match="no alpha could be scored.*objective not finite"):
            select_alpha(breaking(None), sample)

    @pytest.mark.parametrize("tag", TAGS)
    def test_no_scored_alpha_raises(self, tag, monkeypatch):
        monkeypatch.setattr(tuning, "_loo_points", unsolving(0))
        with pytest.raises(TuningError, match="no alpha could be scored.*fit 1 of 40"):
            select_alpha(FAMILIES[tag], clean(tag))
