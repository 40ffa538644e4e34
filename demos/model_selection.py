"""
Picking the family with a robust information criterion
======================================================

RIC = H + Tr[J^-1 K]/((1+alpha) n) generalizes AIC: at alpha = 0 the
trace equals the parameter count and the ranking is the AIC ranking.
select_model compares every family at one shared alpha, 0.05: RIC is
not minimized over alpha, since it falls like -1/alpha toward alpha = 0.

On clean data that recovers the generator. Under heavy contamination
alpha = 0.05 is close to the likelihood and the criterion drifts toward
the heaviest-tailed family, so the robust recipe is to fix alpha at a
robust level and compare ric() across families there.
"""

import warnings

from dpdfit import (
    EXPONENTIAL,
    FAMILIES,
    GAMMA,
    LOGNORMAL,
    WEIBULL,
    ContaminationScheme,
    ParamVector,
    quantile,
    ric,
    sample_family,
    select_model,
    simulate_contaminated,
)

SETTINGS = {
    EXPONENTIAL: (1.0,),
    GAMMA: (5.0, 1.0),
    LOGNORMAL: (0.0, 0.5),
    WEIBULL: (3.0, 1.0),
}

candidates = list(FAMILIES.values())
n = 300

print("generator      clean select_model    contaminated ric at a=0.5")
for family, values in SETTINGS.items():
    theta0 = ParamVector(family, values)
    clean = sample_family(family, theta0, n, seed=77)
    dirty = simulate_contaminated(
        family,
        theta0,
        ContaminationScheme(0.05, 15.0 * quantile(theta0, 0.99), seed=77),
        n,
    )
    rep = select_model(candidates, clean)
    scores = {}
    for cand in candidates:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scores[cand.tag] = ric(cand, 0.5, dirty)
    fixed_winner = min(scores, key=scores.get)
    print(f"{family.tag:<14} {rep.winner.tag:<21} {fixed_winner}")

print("\nPer-family RIC at fixed alpha = 0.5 for the last (weibull) run:")
for tag, value in scores.items():
    print(f"  {tag:<12} ric={value:.4f}")
