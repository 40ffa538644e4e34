"""Robust model selection across the candidate families.

Each (family, alpha) pair gets an information criterion

    RIC = H(theta_hat) + Tr[J^-1 K] / ((1 + alpha) n)

whose alpha = 0 case is an affine transform of AIC (the trace equals
the parameter count at the MLE). The winner minimizes RIC over alpha
within each family, then across families, by tuning.alpha_search.
Alpha is a row axis of the Newton kernel and of the sandwich, so each
batch of alphas that tuning.score_alphas fits, the grid or one
golden-section step, is scored by one batched sandwich
(asymptotics._sandwich_rows), whose one inversion of J also gives the
trace, and ric is a batch of one alpha.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import _sandwich_rows
from .dataio import write_rows
from .errors import DpdError, SelectionError
from .families import FAMILIES
from .tuning import alpha_search, score_alphas

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


def _criterion(objective, alpha, n_obs, j_mat, avar):
    """RIC = H + Tr[J^-1 K] / ((1 + alpha) n), for one fit's J and sandwich
    variance avar = J^-1 K J^-1 (p, p) or elementwise over rows of them
    (m, p, p). J is symmetric, so Tr[J^-1 K] = Tr[avar J] is the sum of
    avar * J, from the one inversion of J, the sandwich's."""
    trace = (avar * j_mat).sum(axis=(-2, -1))
    return objective + trace / ((1.0 + alpha) * n_obs)


def _rics(family, fits):
    """The RIC of each fit of `family`, or the DpdError its sandwich raises,
    from one _sandwich_rows call and one batched trace."""
    if not fits:
        return []
    alphas = np.array([res.alpha for res in fits])
    j_mat, _, _, avar, errors = _sandwich_rows(
        family, np.array([res.theta_hat.values for res in fits]), alphas
    )
    # a failed row's value, whatever it is, is replaced by its error
    with np.errstate(all="ignore"):
        values = _criterion(
            np.array([res.objective for res in fits]),
            alphas,
            np.array([res.n_obs for res in fits]),
            j_mat,
            avar,
        )
    return [value if error is None else error for value, error in zip(values.tolist(), errors)]


def ric(family, alpha, sample):
    """Robust information criterion at one (family, alpha)."""
    (scored,) = score_alphas(family, (alpha,), sample, lambda fits: _rics(family, fits))
    if isinstance(scored, DpdError):
        raise scored
    return scored[0]


def select_model(families, sample, refine=True):
    """Pick the family minimizing min-over-alpha RIC.

    Each family's alpha search is tuning.alpha_search over cold fits
    scored by RIC, the grid being one batch; refine=False stops at the
    grid. An alpha whose fit or RIC raises a DpdError is left out, and
    during refinement ends it. Families with no alpha scored are
    excluded with a warning and listed in `excluded`; ties across
    families break toward fewer parameters, then the fixed order
    exponential, gamma, lognormal, Weibull.
    """
    families = list(families)
    if not families:
        raise SelectionError("no candidate families given")
    order = {tag: i for i, tag in enumerate(FAMILIES)}
    table = {}
    records = []
    excluded = []
    for family in families:
        curve, alpha_min = alpha_search(family, sample, lambda fits: _rics(family, fits), refine)
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
