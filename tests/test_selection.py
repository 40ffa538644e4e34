"""Tests for the information criterion and cross-family model choice.

The alpha = 0 criterion must rank families exactly as an independently
computed AIC does; seeded samples check that the generating family is
recovered and that nested families differ by at most the parameter
penalty.
"""

import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from conftest import as_sample
from dpdfit import estimator, selection, tuning
from dpdfit.asymptotics import sandwich
from dpdfit.errors import (
    DpdError,
    DpdValidityError,
    FitError,
    SelectionError,
    SingularInformationError,
)
from dpdfit.estimator import fit, fit_alphas
from dpdfit.families import FAMILIES, ParamVector, log_density
from dpdfit.selection import ric, select_model
from dpdfit.tuning import COARSE_GRID
from dpdfit.uncertainty import sample_family

EXPONENTIAL = FAMILIES["exponential"]
GAMMA = FAMILIES["gamma"]
LOGNORMAL = FAMILIES["lognormal"]
WEIBULL = FAMILIES["weibull"]

ALL_FAMILIES = [EXPONENTIAL, GAMMA, LOGNORMAL, WEIBULL]

GENERATORS = (
    (EXPONENTIAL, (1.0,)),
    (GAMMA, (5.0, 1.0)),
    (LOGNORMAL, (0.0, 1.0)),
    (WEIBULL, (5.0, 1.0)),
)


def independent_aic(family, sample):
    """2n * meanNegLogLik + 2p from the maximum-likelihood fit."""
    result = fit(family, 0.0, sample)
    nll = -np.mean([log_density(result.theta_hat, x) for x in sample.values])
    return 2.0 * sample.n * nll + 2.0 * family.param_count


class TestRic:
    def test_exponential_hand_value(self):
        """H = 1 + ln 2 at the MLE and the trace term is exactly p/n."""
        value = ric(EXPONENTIAL, 0.0, as_sample([1.0, 2.0, 3.0]))
        assert value == pytest.approx(1.0 + math.log(2.0) + 1.0 / 3.0, abs=1e-9)

    def test_order_invariance(self, rng):
        sample = sample_family(GAMMA, ParamVector(GAMMA, (3.0, 1.0)), 60, seed=5)
        shuffled = list(sample.values)
        rng.shuffle(shuffled)
        assert ric(GAMMA, 0.3, sample) == pytest.approx(
            ric(GAMMA, 0.3, as_sample(shuffled)), rel=1e-12
        )

    def test_alpha_zero_ranking_matches_aic(self):
        """Across 20 seeded samples the RIC ordering of the four
        families is identical to the independent AIC ordering."""
        case = 0
        for family, values in GENERATORS:
            theta0 = ParamVector(family, values)
            for seed in range(5):
                sample = sample_family(family, theta0, 120, seed=100 + case)
                case += 1
                rics = {f.tag: ric(f, 0.0, sample) for f in ALL_FAMILIES}
                aics = {f.tag: independent_aic(f, sample) for f in ALL_FAMILIES}
                assert sorted(rics, key=rics.get) == sorted(aics, key=aics.get)

    def test_trace_equals_param_count_at_mle(self):
        """Tr[J^-1 K] at the fitted MLE is the parameter count."""
        from dpdfit.asymptotics import sandwich

        for family, values in GENERATORS:
            sample = sample_family(family, ParamVector(family, values), 200, seed=31)
            result = fit(family, 0.0, sample)
            sw = sandwich(family, result.theta_hat, 0.0)
            trace = float(np.trace(np.linalg.solve(sw.J, sw.K)))
            assert trace == pytest.approx(family.param_count, abs=1e-4), family.tag

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("family, values", GENERATORS, ids=[f.tag for f, _ in GENERATORS])
    def test_matches_the_solve_reference(self, family, values, alpha):
        """RIC's trace is the sum of avar * J, from the sandwich's one
        inversion of J; solving J against K gives the same criterion."""
        sample = sample_family(family, ParamVector(family, values), 80, seed=7)
        result = fit(family, alpha, sample)
        sw = sandwich(family, result.theta_hat, alpha)
        trace = np.trace(np.linalg.solve(sw.J, sw.K))
        reference = result.objective + trace / ((1.0 + alpha) * result.n_obs)
        assert ric(family, alpha, sample) == pytest.approx(reference, rel=1e-12)

    def test_correct_model_wins_at_moderate_alpha(self):
        """On lognormal data the lognormal criterion beats the gamma."""
        sample = sample_family(LOGNORMAL, ParamVector(LOGNORMAL, (0.0, 1.0)), 300, seed=0)
        assert ric(LOGNORMAL, 0.25, sample) < ric(GAMMA, 0.25, sample)


class TestSelectModel:
    def test_singleton_candidate(self):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 50, seed=1)
        report = select_model([EXPONENTIAL], sample)
        assert report.winner is EXPONENTIAL
        assert len(report.records) == 1

    def test_recovers_weibull_generator(self):
        sample = sample_family(WEIBULL, ParamVector(WEIBULL, (2.0, 0.01)), 300, seed=0)
        report = select_model(ALL_FAMILIES, sample)
        assert report.winner is WEIBULL

    def test_nested_families_within_parameter_penalty(self):
        """On truly exponential data the gamma family can improve the
        criterion by at most the extra-parameter penalty 2/n."""
        sample = sample_family(GAMMA, ParamVector(GAMMA, (1.0, 2.0)), 300, seed=0)
        report = select_model([EXPONENTIAL, GAMMA], sample)
        by_tag = {r.family.tag: r.ric_min for r in report.records}
        assert abs(by_tag["exponential"] - by_tag["gamma"]) <= 2.0 / 300.0

    def test_report_invariants(self):
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 1.0)), 150, seed=9)
        report = select_model(ALL_FAMILIES, sample)
        winner_min = min(r.ric_min for r in report.records)
        for record in report.records:
            assert winner_min <= record.ric_min + 1e-12
            family_entries = [
                v for (f, _a), v in report.ric_table.items() if f is record.family
            ]
            assert record.ric_min <= min(family_entries) + 1e-12
            assert record.fit.converged
        assert report.excluded == ()

    def test_each_alpha_fitted_once_from_the_moment_start(self, monkeypatch):
        """Every (family, alpha) in the table is one cold fit, the grid one
        batch and each golden-section step a batch of one alpha, and each
        record holds the fit that was scored: no warm chain, no refit."""
        batches, fits = [], []

        def counting_batch(family, alphas, sample):
            results = fit_alphas(family, alphas, sample)
            batches.append((family.tag, tuple(alphas)))
            fits.extend((family.tag, a, res) for a, res in zip(alphas, results))
            return results

        def no_fit(*args, **kwargs):
            raise AssertionError("select_model fitted outside fit_alphas")

        monkeypatch.setattr(tuning, "fit_alphas", counting_batch)
        monkeypatch.setattr(estimator, "fit", no_fit)
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 1.0)), 80, seed=9)
        report = select_model(ALL_FAMILIES, sample)
        for family in ALL_FAMILIES:
            mine = [alphas for tag, alphas in batches if tag == family.tag]
            assert mine[0] == COARSE_GRID
            assert all(len(alphas) == 1 for alphas in mine[1:])
        assert sorted((tag, a) for tag, a, _ in fits) == sorted(
            (f.tag, a) for f, a in report.ric_table
        )
        for tag, a, res in fits:
            cold = fit(FAMILIES[tag], a, sample)
            assert (res.theta_hat, res.evaluations) == (cold.theta_hat, cold.evaluations)
        by_key = {(tag, a): res for tag, a, res in fits}
        for record in report.records:
            assert record.fit is by_key[(record.family.tag, record.alpha_star_ric)]

    def test_grid_only_mode_stays_on_grid(self):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 80, seed=2)
        report = select_model(ALL_FAMILIES, sample, refine=False)
        for record in report.records:
            assert record.alpha_star_ric in set(k / 20.0 for k in range(21))

    def test_all_candidates_failing(self):
        degenerate = as_sample([2.0, 2.0, 2.0, 2.0])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(SelectionError):
                select_model([GAMMA], degenerate)

    def test_failed_alpha_is_left_out_and_ends_refinement(self, monkeypatch):
        """A grid alpha whose fit fails is left out of the curve, and the
        first refinement alpha whose fit fails ends the refinement."""
        tried = []

        def failing_batch(family, alphas, sample):
            tried.extend(alphas)
            return [
                FitError("forced failure") if alpha == 0.5 or alpha not in COARSE_GRID else res
                for alpha, res in zip(alphas, fit_alphas(family, alphas, sample))
            ]

        monkeypatch.setattr(tuning, "fit_alphas", failing_batch)
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 1.0)), 60, seed=2)
        report = select_model([GAMMA], sample)
        assert sorted(a for _, a in report.ric_table) == [a for a in COARSE_GRID if a != 0.5]
        assert len(tried) == len(COARSE_GRID) + 1
        assert report.records[0].alpha_star_ric in COARSE_GRID

    @pytest.mark.parametrize(
        "point, error",
        [
            ((0.4, 1.0), DpdValidityError),
            ((3.0, 1e-200), SingularInformationError),
            ((3.0, 1e300), SingularInformationError),
        ],
        ids=["floor-at-2-alpha", "J-not-finite", "J-singular"],
    )
    def test_failed_ric_leaves_only_its_alpha_out(self, monkeypatch, point, error):
        """A grid alpha whose fit succeeds but whose RIC raises, here at a
        point refused at 2 alpha, or whose J overflows or is exactly
        singular, is the only entry left out of ric_table; every other
        entry keeps its bits, as the batched sandwich and trace score each
        row on its own."""
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 1.0)), 60, seed=2)
        clean = select_model([GAMMA], sample, refine=False)
        failing = []

        def one_bad_point(family, alphas, sample):
            results = fit_alphas(family, alphas, sample)
            return [
                dataclasses.replace(res, theta_hat=ParamVector(family, point))
                if alpha == 0.5
                else res
                for alpha, res in zip(alphas, results)
            ]

        def recording(family, fits):
            scored = rics(family, fits)
            failing.extend(value for value in scored if isinstance(value, DpdError))
            return scored

        rics = selection._rics
        monkeypatch.setattr(tuning, "fit_alphas", one_bad_point)
        monkeypatch.setattr(selection, "_rics", recording)
        report = select_model([GAMMA], sample, refine=False)
        assert [type(e) for e in failing] == [error]
        expected = {key: value.hex() for key, value in clean.ric_table.items() if key[1] != 0.5}
        assert {key: value.hex() for key, value in report.ric_table.items()} == expected

    def test_excluded_families_are_listed(self):
        """On a constant sample only the one-parameter family can be fitted;
        the others are excluded with a warning and named in the report."""
        degenerate = as_sample([2.0, 2.0, 2.0, 2.0])
        with pytest.warns(RuntimeWarning, match="excluded from selection"):
            report = select_model(ALL_FAMILIES, degenerate)
        assert report.excluded == ("gamma", "lognormal", "weibull")
        assert report.winner is EXPONENTIAL
        assert [r.family for r in report.records] == [EXPONENTIAL]

    def test_underflowing_variance_excludes_the_gamma(self):
        """Distinct values near 1e-300 have a ddof=1 variance of exactly 0,
        so the gamma's moment start has no shape: its fit raises FitError,
        and selection excludes the gamma instead of aborting."""
        tiny = as_sample([1e-300, 2e-300, 3e-300, 5e-300, 7e-300])
        with pytest.raises(FitError, match="variance"):
            fit(GAMMA, 0.5, tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = select_model(ALL_FAMILIES, tiny)
        assert "gamma" in report.excluded
        assert GAMMA not in [r.family for r in report.records]

    def test_empty_candidate_list(self):
        with pytest.raises(SelectionError):
            select_model([], as_sample([1.0, 2.0]))

    def test_table_csv(self):
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 40, seed=3)
        report = select_model([EXPONENTIAL, GAMMA], sample, refine=False)
        buf = io.StringIO()
        report.table_to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "family,alpha,ric"
        assert any(line.startswith("exponential,") for line in lines[1:])
        assert any(line.startswith("gamma,") for line in lines[1:])
