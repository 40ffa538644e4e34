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
from dpdfit import selection
from dpdfit.asymptotics import sandwich
from dpdfit.errors import (
    DomainError,
    DpdError,
    DpdValidityError,
    FitError,
    SelectionError,
    SingularInformationError,
)
from dpdfit.estimator import fit
from dpdfit.families import FAMILIES, ParamVector, log_density, quantile
from dpdfit.selection import RANK_ALPHA, ric, select_model
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

# The station laws of the rainfall benchmark panels.
STATION_LAWS = (
    (GAMMA, (4.0, 0.05)),
    (WEIBULL, (1.6, 0.02)),
    (LOGNORMAL, (4.0, 0.6)),
    (EXPONENTIAL, (0.02,)),
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

    def test_refuses_alpha_above_one(self):
        sample = sample_family(GAMMA, ParamVector(GAMMA, (3.0, 1.0)), 60, seed=5)
        with pytest.raises(DomainError, match=r"alpha must lie in \[0, 1\]"):
            ric(GAMMA, 1.5, sample)

    def test_sandwich_refusal_at_twice_alpha(self):
        """At alpha = 0.8 the gamma fit's shape clears the floor at alpha
        but not at 2 alpha, where the sandwich checks it."""
        sample = sample_family(GAMMA, ParamVector(GAMMA, (0.5, 1.0)), 200, 3)
        res = fit(GAMMA, 0.8, sample)
        assert 0.8 / 1.8 < res.theta_hat.values[0] <= 1.6 / 2.6
        with pytest.raises(DpdValidityError):
            ric(GAMMA, 0.8, sample)

    def test_constant_sample_cannot_be_fitted(self):
        with pytest.raises(FitError, match="degenerate"):
            ric(GAMMA, 0.3, as_sample([2.0, 2.0, 2.0, 2.0]))

    def test_correct_model_wins_at_moderate_alpha(self):
        """On lognormal data the lognormal criterion beats the gamma."""
        sample = sample_family(LOGNORMAL, ParamVector(LOGNORMAL, (0.0, 1.0)), 300, seed=0)
        assert ric(LOGNORMAL, 0.25, sample) < ric(GAMMA, 0.25, sample)


class TestOneAlpha:
    """Why families are ranked at one alpha: RIC is no criterion to
    minimize over alpha. alpha H -> -1 as alpha -> 0+, so RIC(alpha) ~
    -1/alpha and its minimum is the smallest alpha tried; at one alpha,
    RIC(x/s) = s^alpha RIC(x), so the ranking does not depend on units."""

    @staticmethod
    def seeded(family, values):
        return sample_family(family, ParamVector(family, values), 80, seed=7)

    @pytest.mark.parametrize("family, values", GENERATORS, ids=[f.tag for f, _ in GENERATORS])
    def test_alpha_h_tends_to_minus_one(self, family, values):
        sample = self.seeded(family, values)
        gaps = [abs(a * fit(family, a, sample).objective + 1.0) for a in (1e-3, 1e-4, 1e-5)]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("scale", [25.4, 2.0**10])
    @pytest.mark.parametrize("family, values", GENERATORS, ids=[f.tag for f, _ in GENERATORS])
    def test_scale_law(self, family, values, scale):
        """RIC(x/s) = s^alpha RIC(x) for alpha > 0; at alpha = 0, H is a
        mean negative log density, so RIC(x/s) = RIC(x) - ln s."""
        x = np.array(self.seeded(family, values).values)
        small = as_sample(x / scale)
        for alpha in (0.3, 0.7):
            want = scale**alpha * ric(family, alpha, as_sample(x))
            assert ric(family, alpha, small) == pytest.approx(want, rel=1e-12)
        want = ric(family, 0.0, as_sample(x)) - math.log(scale)
        assert ric(family, 0.0, small) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("family, values", GENERATORS, ids=[f.tag for f, _ in GENERATORS])
    def test_winner_does_not_depend_on_units(self, family, values):
        x = np.array(self.seeded(family, values).values)
        winner = select_model(ALL_FAMILIES, as_sample(x)).winner
        for scale in (25.4, 2.0**10):
            assert select_model(ALL_FAMILIES, as_sample(scale * x)).winner is winner


class TestFamilyRecovery:
    """How often select_model picks the law that drew a series: 16
    stratified draws of n = 64 from each station law, clean and with 3
    values replaced by 8 times the clean mean. Every clean draw picks its
    generator at RANK_ALPHA and at alpha = 0.5. Of the contaminated
    draws 63 of 64 do at alpha = 0.5, but only 19 of 64 at RANK_ALPHA
    (gamma 0/16, Weibull 0/16, lognormal 16/16, exponential 3/16), so
    that share is recorded here and not asserted."""

    @staticmethod
    def draws():
        """(clean, contaminated): (family, values) for each station law and seed."""
        clean, dirty = [], []
        for family, theta in STATION_LAWS:
            for seed in range(16):
                rng = np.random.default_rng([7, seed])
                x = quantile(ParamVector(family, theta), (np.arange(64) + rng.random(64)) / 64)
                clean.append((family, x))
                x = x.copy()
                x[rng.choice(64, size=3, replace=False)] = 8.0 * x.mean()
                dirty.append((family, x))
        return clean, dirty

    @staticmethod
    def recovered(series):
        """How many of the series pick the family that drew them."""
        return sum(select_model(ALL_FAMILIES, as_sample(x)).winner is family for family, x in series)

    def test_generator_recovered(self, monkeypatch):
        clean, dirty = self.draws()
        assert self.recovered(clean) >= 62
        monkeypatch.setattr(selection, "RANK_ALPHA", 0.5)
        assert self.recovered(clean) >= 62
        assert self.recovered(dirty) >= 60


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
        by_tag = {r.family.tag: r.ric for r in report.records}
        assert abs(by_tag["exponential"] - by_tag["gamma"]) <= 2.0 / 300.0

    def test_report_invariants(self):
        """Each record is its family's ric at RANK_ALPHA, bit for bit, from
        a converged fit at that alpha, and the winner's is the least."""
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 1.0)), 150, seed=9)
        report = select_model(ALL_FAMILIES, sample)
        winner_min = min(r.ric for r in report.records)
        assert [r.family for r in report.records] == ALL_FAMILIES
        for record in report.records:
            assert winner_min <= record.ric + 1e-12
            assert record.ric.hex() == ric(record.family, RANK_ALPHA, sample).hex()
            assert record.fit.alpha == RANK_ALPHA
            assert record.fit.converged
        assert next(r.ric for r in report.records if r.family is report.winner) == winner_min
        assert report.excluded == ()

    def test_each_alpha_fitted_once_from_the_moment_start(self, monkeypatch):
        """Each family is one fit at RANK_ALPHA, from the moment start, and
        one sandwich at its estimate; the record holds that fit, bit for
        bit a cold fit()'s: no warm chain, no refit."""
        fits, sandwiches = [], []

        def counting_fit(family, alpha, sample, warm_start=None):
            assert warm_start is None
            res = fit(family, alpha, sample)
            fits.append((family.tag, alpha, res))
            return res

        def counting_sandwich(family, theta, alpha):
            sandwiches.append((family.tag, theta, alpha))
            return sandwich(family, theta, alpha)

        monkeypatch.setattr(selection, "fit", counting_fit)
        monkeypatch.setattr(selection, "sandwich", counting_sandwich)
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 1.0)), 80, seed=9)
        report = select_model(ALL_FAMILIES, sample)
        assert [(tag, alpha) for tag, alpha, _ in fits] == [
            (f.tag, RANK_ALPHA) for f in ALL_FAMILIES
        ]
        assert sandwiches == [(tag, res.theta_hat, RANK_ALPHA) for tag, _, res in fits]
        for record, (_, _, res) in zip(report.records, fits):
            assert record.fit is res
            cold = fit(record.family, RANK_ALPHA, sample)
            assert (res.theta_hat, res.objective, res.evaluations) == (
                cold.theta_hat, cold.objective, cold.evaluations
            )

    def test_all_candidates_failing(self):
        degenerate = as_sample([2.0, 2.0, 2.0, 2.0])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(SelectionError):
                select_model([GAMMA], degenerate)

    def test_failed_fit_excludes_and_names_the_family(self, monkeypatch):
        """A family whose fit fails at RANK_ALPHA is excluded, with a
        warning naming its error, and the others are ranked as before."""
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 1.0)), 60, seed=2)
        clean = select_model(ALL_FAMILIES, sample)

        def failing_fit(family, alpha, sample):
            if family is GAMMA:
                raise FitError("forced failure")
            return fit(family, alpha, sample)

        monkeypatch.setattr(selection, "fit", failing_fit)
        with pytest.warns(RuntimeWarning, match="gamma: FitError: forced failure; excluded"):
            report = select_model(ALL_FAMILIES, sample)
        assert report.excluded == ("gamma",)
        assert [(r.family, r.ric.hex()) for r in report.records] == [
            (r.family, r.ric.hex()) for r in clean.records if r.family is not GAMMA
        ]

    @pytest.mark.parametrize(
        "point, error",
        [
            ((0.07, 1.0), DpdValidityError),
            ((3.0, 1e-200), SingularInformationError),
            ((3.0, 1e300), SingularInformationError),
        ],
        ids=["floor-at-2-alpha", "J-not-finite", "J-singular"],
    )
    def test_failed_ric_leaves_only_its_alpha_out(self, monkeypatch, point, error):
        """A family whose fit succeeds but whose sandwich raises, here at a
        point refused at 2 alpha, or whose J overflows or is exactly
        singular, is excluded with that error named; every other family
        keeps its bits."""
        sample = sample_family(GAMMA, ParamVector(GAMMA, (5.0, 1.0)), 60, seed=2)
        clean = select_model(ALL_FAMILIES, sample)
        failing = []

        def one_bad_point(family, alpha, sample):
            res = fit(family, alpha, sample)
            if family is not GAMMA:
                return res
            return dataclasses.replace(res, theta_hat=ParamVector(family, point))

        def recording(family, theta, alpha):
            try:
                return sandwich(family, theta, alpha)
            except DpdError as exc:
                failing.append(exc)
                raise

        monkeypatch.setattr(selection, "fit", one_bad_point)
        monkeypatch.setattr(selection, "sandwich", recording)
        with pytest.warns(RuntimeWarning, match=f"gamma: {error.__name__}: .*; excluded"):
            report = select_model(ALL_FAMILIES, sample)
        assert [type(e) for e in failing] == [error]
        assert report.excluded == ("gamma",)
        assert [(r.family, r.ric.hex(), r.fit.theta_hat) for r in report.records] == [
            (r.family, r.ric.hex(), r.fit.theta_hat) for r in clean.records if r.family is not GAMMA
        ]

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
        """One row per scored family, at RANK_ALPHA."""
        sample = sample_family(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 40, seed=3)
        report = select_model([EXPONENTIAL, GAMMA], sample)
        buf = io.StringIO()
        report.table_to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "family,alpha,ric"
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == ["exponential,0.05", "gamma,0.05"]
        assert [float(line.rsplit(",", 1)[1]) for line in lines[1:]] == pytest.approx(
            [r.ric for r in report.records], rel=1e-11
        )
