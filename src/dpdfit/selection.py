"""Robust model selection across the candidate families.

Each (family, alpha) pair gets an information criterion

    RIC = H(theta_hat) + Tr[J^-1 K] / ((1 + alpha) n)

whose alpha = 0 case is an affine transform of AIC (the trace equals
the parameter count at the MLE). select_model compares the families at
one alpha, as the divergence information criterion of Mattheou, Lee &
Karagrigoriou (2009) does: alpha H -> -1 as alpha -> 0+, so a minimum
of RIC over alpha is the smallest alpha tried. Each family is one
tuning.score_alphas batch of one alpha, scored by one batched sandwich
(asymptotics._sandwich_rows), whose one inversion of J also gives the
trace; ric is the same batch at any alpha.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import _sandwich_rows
from .dataio import write_rows
from .errors import DpdError, SelectionError
from .families import FAMILIES
from .tuning import score_alphas

__all__ = ["SelectionRecord", "SelectionReport", "ric", "select_model"]

# At 0.05 every `report --fast` winner on the 64 benchmark report series
# stays as it was; each other alpha tried moves some: 1 at alpha = 0,
# 0.01 and 0.1, 5 at 0.25 and 7 at 0.5.
RANK_ALPHA = 0.05


@dataclass(frozen=True)
class SelectionRecord:
    family: object
    ric: float
    fit: object  # the fit scored, at RANK_ALPHA
    ric_min = property(lambda self: self.ric)  # the name bench/record_reference.py reads


@dataclass(frozen=True)
class SelectionReport:
    records: tuple  # one per scored family, in candidate order
    winner: object
    excluded: tuple  # tags of the families that could not be scored, in candidate order

    def table_to_csv(self, path_or_fp):
        write_rows(path_or_fp, ["family", "alpha", "ric"], (
            [r.family.tag, f"{r.fit.alpha:.10g}", f"{r.ric:.12g}"] for r in self.records
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


def select_model(families, sample, *, refine=None):  # refine: ignored, bench/record_reference.py passes it
    """Pick the family of least RIC at RANK_ALPHA.

    Each family is one score_alphas batch of RANK_ALPHA: one fit row and
    one sandwich row. A family whose fit or RIC raises a DpdError there
    is excluded with a warning naming the error, and listed in
    `excluded`; ties break toward fewer parameters, then the fixed order
    exponential, gamma, lognormal, Weibull.
    """
    families = list(families)
    if not families:
        raise SelectionError("no candidate families given")
    order = {tag: i for i, tag in enumerate(FAMILIES)}
    records = []
    excluded = []
    for family in families:
        (scored,) = score_alphas(family, (RANK_ALPHA,), sample, lambda fits: _rics(family, fits))
        if isinstance(scored, DpdError):
            why = f"{type(scored).__name__}: {scored}"
            warnings.warn(f"{family.tag}: {why}; excluded from selection", RuntimeWarning)
            excluded.append(family.tag)
            continue
        records.append(SelectionRecord(family, *scored))

    if not records:
        raise SelectionError(f"no candidate family could be scored at alpha={RANK_ALPHA:g}")
    winner = min(records, key=lambda r: (r.ric, r.family.param_count, order.get(r.family.tag, 99)))
    return SelectionReport(records=tuple(records), winner=winner.family, excluded=tuple(excluded))
