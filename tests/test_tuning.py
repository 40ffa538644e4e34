"""Tests for leave-one-out CVM tuning of alpha.

The n=3 exponential case is summed by hand inside the test; the larger
cases pin seeded samples whose tuning behavior encodes the calibrated
clean-versus-contaminated ordering.
"""

import io
import math

import numpy as np
import pytest

from conftest import as_sample
from dpdfit import tuning
from dpdfit.errors import DomainError, FitError, TuningError
from dpdfit.estimator import fit, fit_alphas
from dpdfit.families import FAMILIES, ParamVector, cdf, quantile
from dpdfit.tuning import COARSE_GRID, _score_alphas, cvm_distance, select_alpha
from dpdfit.uncertainty import ContaminationScheme, sample_family, simulate_contaminated
from reference_values import CVM3_EXPONENTIAL

EXPONENTIAL = FAMILIES["exponential"]
GAMMA = FAMILIES["gamma"]


class TestCvmDistance:
    def test_three_point_hand_sum(self):
        """Each leave-one-out MLE is the reciprocal pair mean: 1/2.5,
        1/2, 1/1.5. The plotted positions are (i - 0.5)/3."""
        total = 0.0
        data = [1.0, 2.0, 3.0]
        for i, x in enumerate(data):
            rest = [v for j, v in enumerate(data) if j != i]
            lam = 1.0 / np.mean(rest)
            resid = (i + 0.5) / 3.0 - (1.0 - math.exp(-lam * x))
            total += resid * resid
        expected = total / 3.0
        got = cvm_distance(EXPONENTIAL, 0.0, as_sample(data))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(CVM3_EXPONENTIAL, abs=1e-8)

    def test_quantile_placed_sample_near_zero(self):
        """Observations sitting exactly on the fitted quantiles leave
        only the leave-one-out perturbation, below 1e-3 at n=200."""
        pv = ParamVector(EXPONENTIAL, (1.0,))
        n = 200
        sample = as_sample(
            quantile(pv, (np.arange(1, n + 1) - 0.5) / n)
        )
        assert cvm_distance(EXPONENTIAL, 0.0, sample) < 1e-3
        assert cvm_distance(EXPONENTIAL, 0.5, sample) < 1e-3

    def test_order_invariance(self, rng):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 40, seed=2)
        shuffled = list(sample.values)
        rng.shuffle(shuffled)
        assert cvm_distance(EXPONENTIAL, 0.2, as_sample(shuffled)) == cvm_distance(
            EXPONENTIAL, 0.2, sample
        )

    def test_bounded_by_one(self, rng):
        """Each summand is a squared difference of two values in [0, 1]."""
        for seed in range(3):
            sample = sample_family(
                EXPONENTIAL, ParamVector(EXPONENTIAL, (0.5,)), 30, seed=seed
            )
            d = cvm_distance(EXPONENTIAL, float(rng.uniform(0, 1)), sample)
            assert 0.0 <= d <= 1.0

    def test_too_few_observations(self):
        with pytest.raises(DomainError):
            cvm_distance(GAMMA, 0.1, as_sample([1.0, 2.0, 3.0]))

    def test_failed_loo_fit_names_index(self):
        """Removing the only distinct value leaves a degenerate sample;
        the error says which held-out index broke."""
        with pytest.raises(TuningError, match="4 of 4"):
            cvm_distance(GAMMA, 0.1, as_sample([2.0, 2.0, 2.0, 5.0]))

    def test_contamination_pushes_grid_minimum_up(self):
        """A gamma sample with 5% of its points replaced by a far value
        has its CVM curve minimized at strictly larger alpha."""
        theta0 = ParamVector(GAMMA, (5.0, 0.05))
        clean = sample_family(GAMMA, theta0, 200, seed=1)
        planted = list(clean.values)
        planted[-10:] = [float(10.0 * quantile(theta0, 0.99))] * 10
        clean_star = select_alpha(GAMMA, clean, refine=False).alpha_star
        dirty_star = select_alpha(GAMMA, as_sample(planted), refine=False).alpha_star
        assert dirty_star > clean_star


class TestSelectAlpha:
    def test_clean_exponential_prefers_small_alpha(self):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 500, seed=5)
        result = select_alpha(EXPONENTIAL, sample)
        assert result.alpha_star <= 0.3
        assert result.cvmd_star <= result.cvmd_curve[1.0]

    def test_contaminated_alpha_exceeds_clean(self):
        """Ten percent point contamination moves the tuned alpha up
        relative to the paired clean sample under the same seed."""
        theta0 = ParamVector(EXPONENTIAL, (1.0,))
        clean = sample_family(EXPONENTIAL, theta0, 500, seed=5)
        scheme = ContaminationScheme(0.1, 20.0 * quantile(theta0, 0.99), seed=5)
        dirty = simulate_contaminated(EXPONENTIAL, theta0, scheme, 500)
        star_clean = select_alpha(EXPONENTIAL, clean).alpha_star
        star_dirty = select_alpha(EXPONENTIAL, dirty).alpha_star
        assert star_dirty > star_clean

    def test_result_structure(self):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (2.0,)), 30, seed=3)
        result = select_alpha(EXPONENTIAL, sample)
        assert result.alpha_grid == COARSE_GRID
        assert 0.0 <= result.alpha_star <= 1.0
        assert set(COARSE_GRID) <= set(result.cvmd_curve)
        assert result.cvmd_star == min(result.cvmd_curve.values())
        assert result.fit_star.alpha == result.alpha_star
        assert result.fit_star.converged

    def test_each_alpha_fitted_once_from_the_moment_start(self, monkeypatch):
        """Every curve alpha is one cold full-sample fit. The grid is the
        first batch; each of the two later batches is every point of its
        own lattice, k/200 then k/1000, strictly inside the best alpha's
        scored neighbours and not tried before. fit_star is the fit scored
        at alpha_star, not a refit."""
        batches, fits = [], []

        def counting_batch(family, alphas, sample):
            results = fit_alphas(family, alphas, sample)
            batches.append(tuple(alphas))
            fits.extend(zip(alphas, results))
            return results

        monkeypatch.setattr(tuning, "fit_alphas", counting_batch)
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 0.05)), 40, seed=4)
        result = select_alpha(GAMMA, sample)
        assert batches[0] == COARSE_GRID
        assert len(batches) == 3
        tried = [a for alphas in batches for a in alphas]
        assert len(tried) == len(set(tried))
        for j, step in ((1, 200), (2, 1000)):
            seen = [a for alphas in batches[:j] for a in alphas]
            curve = sorted(a for a in seen if a in result.cvmd_curve)
            pos = curve.index(min(curve, key=lambda a: (result.cvmd_curve[a], a)))
            lo, hi = curve[max(pos - 1, 0)], curve[min(pos + 1, len(curve) - 1)]
            lattice = (k / step for k in range(step + 1))
            assert batches[j] == tuple(a for a in lattice if lo < a < hi and a not in seen)
            assert batches[j]
        assert sorted(a for a, _ in fits) == sorted(result.cvmd_curve)
        for a, res in fits:
            cold = fit(GAMMA, a, np.sort(sample.values))
            assert (res.theta_hat, res.evaluations) == (cold.theta_hat, cold.evaluations)
        assert result.fit_star is dict(fits)[result.alpha_star]

    def test_star_beats_every_grid_value(self):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 40, seed=4)
        result = select_alpha(EXPONENTIAL, sample)
        for alpha in COARSE_GRID:
            assert result.cvmd_star <= result.cvmd_curve[alpha] + 1e-9

    def test_grid_only_mode(self):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 30, seed=6)
        result = select_alpha(EXPONENTIAL, sample, refine=False)
        assert result.alpha_star in COARSE_GRID
        assert set(result.cvmd_curve) == set(COARSE_GRID)

    def test_deterministic(self):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 35, seed=8)
        first = select_alpha(EXPONENTIAL, sample)
        second = select_alpha(EXPONENTIAL, sample)
        assert first.alpha_star == second.alpha_star
        assert first.cvmd_star == second.cvmd_star
        assert first.cvmd_curve == second.cvmd_curve

    def test_curve_csv(self):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 30, seed=6)
        result = select_alpha(EXPONENTIAL, sample, refine=False)
        buf = io.StringIO()
        result.curve_to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "alpha,cvmd"
        assert len(lines) == 1 + len(COARSE_GRID)
        assert lines[1].startswith("0,")


class TestScoreAlphas:
    """_score_alphas, the one step from a batch of alphas to CVM-scored
    fits, the alpha search's and cvm_distance's."""

    @pytest.mark.parametrize("tag", sorted(FAMILIES))
    def test_scorers_give_no_scores_for_no_fits(self, tag, monkeypatch):
        """When every fit of a batch fails, each alpha keeps its fit's
        error and the leave-one-out solve is handed no rows."""
        xs = np.sort(sample_family(GAMMA, ParamVector(GAMMA, (5.0, 0.05)), 20, seed=1).values)
        solved = []

        def failing_batch(family, alphas, values):
            return [FitError(f"forced at {a}") for a in alphas]

        def recording(family, alphas, xs, fits):
            solved.append(list(alphas))
            return loo_points(family, alphas, xs, fits)

        loo_points = tuning._loo_points
        monkeypatch.setattr(tuning, "fit_alphas", failing_batch)
        monkeypatch.setattr(tuning, "_loo_points", recording)
        scored = _score_alphas(FAMILIES[tag], (0.0, 0.5), xs)
        assert [str(e) for e in scored] == ["forced at 0.0", "forced at 0.5"]
        assert solved in ([], [[]])

    def test_failures_keep_their_slots(self, monkeypatch):
        """A failed fit keeps its slot, the other fits are solved in one
        leave-one-out call, and an unsolved held-out row's TuningError
        takes the slot of its fit."""
        def failing_batch(family, alphas, values):
            results = fit_alphas(family, alphas, values)
            return [FitError("forced") if a == 0.5 else res for a, res in zip(alphas, results)]

        calls = []

        def unsolved_at_quarter(family, alphas, xs, fits):
            calls.append(list(alphas))
            theta, solved = loo_points(family, alphas, xs, fits)
            solved[3, [a == 0.25 for a in alphas]] = False
            return theta, solved

        loo_points = tuning._loo_points
        monkeypatch.setattr(tuning, "fit_alphas", failing_batch)
        monkeypatch.setattr(tuning, "_loo_points", unsolved_at_quarter)
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 0.05)), 40, seed=4)
        xs = np.sort(sample.values)
        scored = _score_alphas(GAMMA, (0.0, 0.25, 0.5, 0.75), xs)
        assert calls == [[0.0, 0.25, 0.75]]
        assert [type(s) for s in scored] == [tuple, TuningError, FitError, tuple]
        assert str(scored[1]) == "leave-one-out fit 4 of 40 is unsolved at alpha=0.25"
        monkeypatch.undo()
        for value, res in (scored[0], scored[3]):
            assert value.hex() == cvm_distance(GAMMA, res.alpha, sample).hex()

    def test_unfittable_values_leave_every_alpha_unscored(self, monkeypatch):
        def no_solve(*args):
            pytest.fail("nothing to solve")

        monkeypatch.setattr(tuning, "_loo_points", no_solve)
        scored = _score_alphas(GAMMA, (0.0, 0.5), np.array([2.0, 2.0, 2.0]))
        assert isinstance(scored[0], FitError) and scored == [scored[0]] * 2
