"""Robust model selection across the candidate families.

Each (family, alpha) pair gets an information criterion

    RIC = H(theta_hat) + Tr[J^-1 K] / ((1 + alpha) n)

whose alpha = 0 case is an affine transform of AIC (the trace equals
the parameter count at the MLE). The winner minimizes RIC over alpha
within each family, then across families. Alpha is a row axis of the
Newton kernel, so each family's grid is one Newton solve
(estimator.fit_alphas) followed by one sandwich per fit, and each
golden-section step a batch of one alpha.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import sandwich
from .dataio import write_rows
from .errors import DpdError, SelectionError
from .estimator import fit, fit_alphas
from .families import FAMILIES
from .tuning import alpha_search

__all__ = ["SelectionRecord", "SelectionReport", "ric", "select_model"]


@dataclass(frozen=True)
class SelectionRecord:
    family: object
    alpha_star_ric: float
    ric_min: float
    fit: object


@dataclass(frozen=True)
class SelectionReport:
    records: tuple
    winner: object
    ric_table: dict
    excluded: tuple  # tags of the families with no alpha scored, in candidate order

    def table_to_csv(self, path_or_fp):
        write_rows(path_or_fp, ["family", "alpha", "ric"], (
            [family.tag, f"{alpha:.10g}", f"{self.ric_table[(family, alpha)]:.12g}"]
            for family, alpha in sorted(self.ric_table, key=lambda k: (k[0].tag, k[1]))
        ))


def _ric_from_fit(fit_result):
    sw = sandwich(fit_result.family, fit_result.theta_hat, fit_result.alpha)
    trace = float(np.trace(np.linalg.solve(sw.J, sw.K)))
    return fit_result.objective + trace / ((1.0 + fit_result.alpha) * fit_result.n_obs)


def ric(family, alpha, sample):
    """Robust information criterion at one (family, alpha)."""
    return _ric_from_fit(fit(family, alpha, sample))


def _scored(family, alphas, sample):
    """(RIC, fit) of the cold fit at each alpha, from one fit_alphas call,
    or the DpdError that leaves the alpha unscored: its fit's, its RIC's,
    or, everywhere, the one for a sample that cannot be fitted at all."""
    try:
        fits = fit_alphas(family, alphas, sample)
    except DpdError as exc:
        return [exc] * len(alphas)
    scored = []
    for res in fits:
        try:
            scored.append(res if isinstance(res, DpdError) else (_ric_from_fit(res), res))
        except DpdError as exc:
            scored.append(exc)
    return scored


def select_model(families, sample, refine=True):
    """Pick the family minimizing min-over-alpha RIC.

    Each family's alpha search is tuning.alpha_search over cold fits
    scored by RIC, the grid being one fit_alphas call; refine=False
    stops at the grid. An alpha whose fit or RIC raises a DpdError is
    left out, and during refinement ends it.
    Families with no alpha scored are excluded with a warning and listed
    in `excluded`; ties across families break toward fewer parameters,
    then the fixed order exponential, gamma, lognormal, Weibull.
    """
    families = list(families)
    if not families:
        raise SelectionError("no candidate families given")
    order = {tag: i for i, tag in enumerate(FAMILIES)}
    table = {}
    records = []
    excluded = []
    for family in families:
        curve, alpha_min = alpha_search(lambda alphas: _scored(family, alphas, sample), refine)
        if not curve:
            warnings.warn(f"{family.tag}: every fit failed; excluded from selection", RuntimeWarning)
            excluded.append(family.tag)
            continue
        table.update({(family, al): value for al, (value, _) in curve.items()})
        ric_min, fit_min = curve[alpha_min]
        records.append(SelectionRecord(family, float(alpha_min), float(ric_min), fit_min))

    if not records:
        raise SelectionError("all candidate families failed to fit")
    winner_rec = min(
        records,
        key=lambda r: (r.ric_min, r.family.param_count, order.get(r.family.tag, 99)),
    )
    return SelectionReport(
        records=tuple(records), winner=winner_rec.family, ric_table=table, excluded=tuple(excluded)
    )
