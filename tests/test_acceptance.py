"""Top-level acceptance checks, one numbered gate per behavior.

Each test prints a single PASS/FAIL line (plus sub-lines where a gate
has several clauses) with the measured quantities, so a full run reads
as a checklist: efficiency tables against frozen closed-form values,
estimator equivalences against independent oracles, influence-function
growth and boundedness, sandwich closed forms against quadrature,
model-ranking consistency, end-to-end contamination robustness,
bootstrap-vs-asymptotic agreement, and the zero-inflated median rule.
Run with -s to see the lines for passing gates too.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import digamma

from conftest import as_sample
from dpdfit.asymptotics import (
    are,
    asymptotic_se,
    if_supremum,
    influence_function,
    sandwich,
)
from dpdfit.dataio import adjusted_median
from dpdfit.errors import DpdError
from dpdfit.estimator import fit, objective_h
from dpdfit.families import FAMILIES, ParamVector, quantile
from dpdfit.selection import ric
from dpdfit.tuning import select_alpha
from dpdfit.uncertainty import (
    ContaminationScheme,
    bootstrap_se,
    sample_family,
    simulate_contaminated,
)
from reference_values import REFERENCE_ARE, TABULATED_ARE, TABULATED_ARE_ERRATA
from test_asymptotics import quadrature_sandwich
from test_selection import independent_aic

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

TABLE_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0)


def _gate(index, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{index:02d}] {label}: {detail}")
    return ok


def test_01_exponential_efficiency_closed_form():
    expected = (0.97, 0.90, 0.82, 0.75, 0.68, 0.59, 0.51)
    start = time.perf_counter()
    table = are(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), TABLE_ALPHAS)
    elapsed = time.perf_counter() - start
    devs = [
        abs(table.rows[a][0] - want) for a, want in zip(TABLE_ALPHAS, expected)
    ]
    ok = max(devs) <= 0.005 and elapsed < 1.0
    _gate(1, "exponential efficiency closed form",
          ok, f"max dev {max(devs):.4f} (tol 0.005), {elapsed:.2f}s")
    assert ok


def test_02_numeric_family_efficiency_tables():
    settings = (
        (GAMMA, (5.0, 0.05)),
        (GAMMA, (10.0, 0.05)),
        (WEIBULL, (2.0, 0.01)),
        (WEIBULL, (4.0, 0.01)),
        (LOGNORMAL, (5.0, 0.2)),
        (LOGNORMAL, (5.0, 0.4)),
    )
    # Entries listed in TABULATED_ARE_ERRATA are printed more than 0.01
    # from the exact closed form (the generator derives the list from the
    # closed form alone); those are held to the exact value within half a
    # print unit, every other entry to the print within 0.01.
    start = time.perf_counter()
    violations = []
    printed_ok = errata_ok = 0
    for family, theta in settings:
        table = are(family, ParamVector(family, theta), TABLE_ALPHAS)
        wanted = TABULATED_ARE[(family.tag, theta)]
        exact = REFERENCE_ARE[(family.tag, theta)]
        for alpha in TABLE_ALPHAS:
            for index, (name, g, w, x) in enumerate(
                zip(family.param_names, table.rows[alpha], wanted[alpha], exact[alpha])
            ):
                where = f"{family.tag}{theta} alpha={alpha} {name}"
                erratum = TABULATED_ARE_ERRATA.get(
                    (family.tag, theta, alpha, index)
                )
                if erratum is None:
                    if abs(g - w) <= 0.01:
                        printed_ok += 1
                    else:
                        violations.append(
                            f"{where}: {g:.4f} vs printed {w:.2f} "
                            f"(dev {abs(g - w):.4f}, tol 0.01)"
                        )
                elif erratum[0] == w and abs(g - x) <= 0.005:
                    errata_ok += 1
                else:
                    violations.append(
                        f"{where}: {g:.4f} vs exact {x:.4f} "
                        f"(dev {abs(g - x):.4f}, tol 0.005; erratum of "
                        f"printed {erratum[0]:.2f}, table has {w:.2f})"
                    )
    elapsed = time.perf_counter() - start
    n_errata = len(TABULATED_ARE_ERRATA)
    for line in violations:
        print(f"      entry out of tolerance: {line}")
    ok = not violations and errata_ok == n_errata and elapsed < 30.0
    _gate(2, "numeric-family efficiency tables",
          ok,
          f"{printed_ok} printed entries within 0.01, "
          f"{errata_ok}/{n_errata} errata within 0.005 of the closed form, "
          f"{elapsed:.1f}s")
    assert ok


def _gamma_mle(values):
    xs = np.asarray(values)
    c = np.log(xs.mean()) - np.mean(np.log(xs))
    a = brentq(lambda a: np.log(a) - digamma(a) - c, 1e-3, 1e4,
               xtol=1e-14, rtol=8.9e-16)
    return a, a / xs.mean()


def _weibull_mle(values):
    xs = np.asarray(values)
    mean_log = np.mean(np.log(xs))

    def profile(a):
        xa = xs ** a
        return np.sum(xa * np.log(xs)) / np.sum(xa) - 1.0 / a - mean_log

    a = brentq(profile, 1e-2, 1e3, xtol=1e-14, rtol=8.9e-16)
    return a, float(np.mean(xs ** a) ** (-1.0 / a))


def _lognormal_mle(values):
    logs = np.log(np.asarray(values))
    return float(np.mean(logs)), float(np.sqrt(np.mean((logs - np.mean(logs)) ** 2)))


def test_03_mle_equivalence_at_alpha_zero():
    oracles = {
        "exponential": lambda xs: (1.0 / np.mean(xs),),
        "gamma": _gamma_mle,
        "lognormal": _lognormal_mle,
        "weibull": _weibull_mle,
    }
    worst = 0.0
    for block, tag in enumerate(sorted(FIG_SETTINGS)):
        family = FAMILIES[tag]
        for i in range(20):
            sample = sample_family(
                family, FIG_SETTINGS[tag], 150, seed=200 + 100 * block + i
            )
            result = fit(family, 0.0, sample)
            reference = oracles[tag](np.asarray(sample.values))
            for got, want in zip(result.theta_hat.values, reference):
                scale = abs(want) if want != 0.0 else 1.0
                worst = max(worst, abs(got - want) / scale)
    ok = worst < 1e-6
    _gate(3, "maximum-likelihood equivalence at alpha 0",
          ok, f"80 fits, worst relative error {worst:.2e} (tol 1e-6)")
    assert ok


def test_04_fit_matches_exhaustive_grid_search():
    worst = 0.0
    for tag in sorted(FIG_SETTINGS):
        family = FAMILIES[tag]
        sample = sample_family(family, FIG_SETTINGS[tag], 25, seed=21)
        for alpha in (0.1, 0.5, 1.0):
            center = fit(family, alpha, sample).theta_hat.values
            axes = [
                [c * (1.0 + k * 1e-3) for k in range(-5, 6)] for c in center
            ]
            best, best_value = None, np.inf
            for point in itertools.product(*axes):
                value = objective_h(
                    family, ParamVector(family, point), alpha, sample
                )
                if value < best_value:
                    best, best_value = point, value
            rel = max(abs(b - c) / c for b, c in zip(best, center))
            worst = max(worst, rel)
    ok = worst <= 1.5e-3
    _gate(4, "fit equals exhaustive objective grid search",
          ok, f"worst offset {worst:.2e} of fit vs 1e-3-step grid argmin")
    assert ok


def test_05_influence_growth_and_boundedness():
    spot = influence_function(EXPONENTIAL, ParamVector(EXPONENTIAL, (1.0,)), 0.0, 5.0)
    spot_ok = float(np.atleast_1d(spot)[0]) == -4.0

    growth_ok = True
    for tag in sorted(FIG_SETTINGS):
        family = FAMILIES[tag]
        pv = ParamVector(family, FIG_SETTINGS[tag])
        y = float(quantile(pv, 0.99))
        base = float(np.linalg.norm(influence_function(family, pv, 0.0, y)))
        reached = False
        # Unbounded influence at alpha = 0: walk a geometric grid until
        # the norm has grown a thousandfold past its 99th-percentile
        # value, stopping short of float overflow.
        while y < 1e305:
            y *= 10.0
            norm = float(np.linalg.norm(influence_function(family, pv, 0.0, y)))
            if norm >= 1e3 * base:
                reached = True
                break
        growth_ok = growth_ok and reached

    worst_change = 0.0
    finite_ok = True
    for tag in sorted(FIG_SETTINGS):
        family = FAMILIES[tag]
        pv = ParamVector(family, FIG_SETTINGS[tag])
        for alpha in (0.1, 0.5, 1.0):
            coarse = if_supremum(family, pv, alpha, grid_points=2000)
            fine = if_supremum(family, pv, alpha, grid_points=4000)
            finite_ok = finite_ok and np.isfinite(coarse) and np.isfinite(fine)
            worst_change = max(worst_change, abs(fine - coarse) / coarse)
    stable_ok = finite_ok and worst_change < 1e-3

    ok = spot_ok and growth_ok and stable_ok
    _gate(5, "influence growth at alpha 0, boundedness at alpha > 0",
          ok,
          f"spot -4 exact: {spot_ok}; thousandfold growth: {growth_ok}; "
          f"sup stable under 2x refinement (worst {worst_change:.2e})")
    assert ok


def test_06_exponential_sandwich_closed_forms():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(10):
        lam = 10.0 ** rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(0.05, 1.0)
        pv = ParamVector(EXPONENTIAL, (lam,))
        sw = sandwich(EXPONENTIAL, pv, alpha)
        j_ref, k_ref, xi_ref = quadrature_sandwich(pv, alpha)
        for got, want in (
            (sw.J[0, 0], j_ref[0, 0]),
            (sw.K[0, 0], k_ref[0, 0]),
            (sw.xi[0], xi_ref[0]),
        ):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    ok = worst < 1e-7
    _gate(6, "exponential sandwich closed forms vs quadrature",
          ok, f"10 random (lambda, alpha), worst relative gap {worst:.2e}")
    assert ok


def test_07_ric_ranking_matches_aic():
    tags = sorted(FIG_SETTINGS)
    mismatches = 0
    for i in range(20):
        generator = tags[i % 4]
        sample = sample_family(
            FAMILIES[generator], FIG_SETTINGS[generator], 120, seed=100 + i
        )
        ric_rank = sorted(tags, key=lambda t: ric(FAMILIES[t], 0.0, sample))
        aic_rank = sorted(tags, key=lambda t: independent_aic(FAMILIES[t], sample))
        if ric_rank != aic_rank:
            mismatches += 1

    worst_trace = 0.0
    for tag in tags:
        family = FAMILIES[tag]
        sample = sample_family(family, FIG_SETTINGS[tag], 200, seed=31)
        theta = fit(family, 0.0, sample).theta_hat
        sw = sandwich(family, theta, 0.0)
        trace = float(np.trace(np.linalg.solve(sw.J, sw.K)))
        worst_trace = max(worst_trace, abs(trace - family.param_count))

    ok = mismatches == 0 and worst_trace < 1e-4
    _gate(7, "RIC ranking equals AIC ranking at alpha 0",
          ok,
          f"20/20 orderings match: {mismatches == 0}; "
          f"worst |trace - p| {worst_trace:.2e} (tol 1e-4)")
    assert ok


def test_08_contamination_end_to_end():
    start = time.perf_counter()

    bias_wins = {}
    for tag in sorted(FIG_SETTINGS):
        family = FAMILIES[tag]
        theta0 = FIG_SETTINGS[tag]
        point = 20.0 * float(quantile(ParamVector(family, theta0), 0.99))
        wins = 0
        for trial in range(50):
            scheme = ContaminationScheme(0.05, point, seed=trial)
            sample = simulate_contaminated(family, theta0, scheme, 1000)
            mle = fit(family, 0.0, sample)
            robust = fit(family, 0.5, sample)
            if all(
                abs(r - t) < abs(m - t)
                for r, m, t in zip(
                    robust.theta_hat.values, mle.theta_hat.values, theta0
                )
            ):
                wins += 1
        bias_wins[tag] = wins
    bias_ok = all(w >= 45 for w in bias_wins.values())
    for tag, wins in bias_wins.items():
        print(f"      bias clause {tag}: alpha=0.5 beats MLE in {wins}/50 trials")

    # Paired tuning: clean draw vs the same draw with 5% of points
    # moved to 20x the 99th percentile; sized down to stay inside the
    # runtime budget (10 pairs for the fast family, 5 each for the
    # rest, n = 250, coarse tuning grid). A pair counts when the
    # contaminated draw tunes away from the MLE (alpha_star > 0) and
    # its tuned fit is closer to theta0 than that draw's MLE on every
    # parameter. The clean side is not a usable reference: its
    # leave-one-out CVM curve is flat to a few 1e-4 over alpha, so its
    # argmin lands anywhere on the grid (up to 1.0). Whether the
    # contaminated alpha_star exceeds the clean one is printed as
    # information only.
    pair_counts = {"exponential": 10, "gamma": 5, "lognormal": 5, "weibull": 5}
    robust = exceed = total = errors = 0
    for tag, n_pairs in sorted(pair_counts.items()):
        family = FAMILIES[tag]
        theta0 = FIG_SETTINGS[tag]
        point = 20.0 * float(quantile(ParamVector(family, theta0), 0.99))
        for s in range(n_pairs):
            total += 1
            try:
                clean = sample_family(family, theta0, 250, seed=s)
                dirty = simulate_contaminated(
                    family, theta0, ContaminationScheme(0.05, point, seed=s), 250
                )
                a_clean = select_alpha(family, clean, refine=False).alpha_star
                tuned = select_alpha(family, dirty, refine=False)
                mle = fit(family, 0.0, dirty)
            except DpdError as e:
                errors += 1
                print(f"      tuning pair {tag} seed {s} failed: {e}")
                continue
            if tuned.alpha_star > 0.0 and all(
                abs(r - t) < abs(m - t)
                for r, m, t in zip(
                    tuned.fit_star.theta_hat.values, mle.theta_hat.values, theta0
                )
            ):
                robust += 1
            if tuned.alpha_star > a_clean:
                exceed += 1
    fraction = robust / total
    tuning_ok = fraction >= 0.80 and errors == 0
    print(
        f"      tuning clause: contaminated draw tunes to alpha_star > 0 "
        f"and beats its MLE in {robust}/{total} pairs "
        f"({100 * fraction:.0f}%, need 80%)"
    )
    print(
        f"      (information) contaminated alpha_star exceeds clean in "
        f"{exceed}/{total} pairs"
    )

    elapsed = time.perf_counter() - start
    time_ok = elapsed < 600.0
    ok = bias_ok and tuning_ok and time_ok
    _gate(8, "contamination robustness end to end",
          ok,
          f"bias clause {'met' if bias_ok else 'NOT met'}, "
          f"tuning clause {'met' if tuning_ok else 'NOT met'}, "
          f"{elapsed:.0f}s (budget 600s)")
    assert ok


def test_09_bootstrap_matches_asymptotic_se():
    hits = 0
    details = []
    for seed in range(5):
        sample = sample_family(EXPONENTIAL, (1.0,), 500, seed=seed)
        boot = bootstrap_se(EXPONENTIAL, 0.0, sample, B=1000, seed=seed)
        reference = asymptotic_se(boot.fit)[0]
        close = abs(boot.se[0] - reference) < 0.2 * reference
        hits += close
        details.append(f"{boot.se[0] / reference:.3f}")
    ok = hits >= 3
    _gate(9, "bootstrap SE within 20% of asymptotic SE",
          ok, f"{hits}/5 seeds agree (ratios {', '.join(details)})")
    assert ok


def test_10_zero_inflated_median_rule():
    sample = sample_family(EXPONENTIAL, (1.0,), 400, seed=8)
    result = fit(EXPONENTIAL, 0.0, sample)
    theta = result.theta_hat

    majority_dry = adjusted_median(result, dry_count=600)
    fifth = adjusted_median(result, dry_count=100)
    no_dry = adjusted_median(result, dry_count=0)

    ok = (
        majority_dry == 0.0
        and fifth == float(quantile(theta, (0.5 - 0.2) / (1.0 - 0.2)))
        and no_dry == float(quantile(theta, 0.5))
    )
    _gate(10, "zero-inflated median rule",
          ok,
          f"p=0.6 -> {majority_dry}; p=0.2 -> 37.5th pct {fifth:.4f}; "
          f"p=0 -> median {no_dry:.4f}")
    assert ok
