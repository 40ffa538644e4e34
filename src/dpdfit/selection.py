"""Robust model selection across the candidate families.

Each (family, alpha) pair gets an information criterion

    RIC = H(theta_hat) + Tr[J^-1 K] / ((1 + alpha) n)

whose alpha = 0 case is an affine transform of AIC (the trace equals
the parameter count at the MLE). select_model compares the families at
one alpha, as the divergence information criterion of Mattheou, Lee &
Karagrigoriou (2009) does: alpha H -> -1 as alpha -> 0+, so a minimum
of RIC over alpha is the smallest alpha tried. Each family is one fit
and one sandwich, whose one inversion of J also gives the trace; ric is
the same at any alpha.
"""

import warnings
from dataclasses import dataclass

from .asymptotics import sandwich
from .dataio import write_rows
from .errors import DpdError, SelectionError
from .estimator import fit
from .families import FAMILIES

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


def _criterion(res, sw):
    """RIC = H + Tr[J^-1 K] / ((1 + alpha) n) of the fit res, from its
    sandwich sw. J is symmetric, so Tr[J^-1 K] = Tr[avar J] is the sum of
    avar * J, from the one inversion of J, the sandwich's."""
    return res.objective + float((sw.avar * sw.J).sum()) / ((1.0 + res.alpha) * res.n_obs)


def ric(family, alpha, sample):
    """Robust information criterion at one (family, alpha)."""
    res = fit(family, alpha, sample)
    return _criterion(res, sandwich(family, res.theta_hat, alpha))


def select_model(families, sample, *, refine=None):  # refine: ignored, bench/record_reference.py passes it
    """Pick the family of least RIC at RANK_ALPHA.

    Each family is one fit and one sandwich at RANK_ALPHA. A family whose
    fit or sandwich raises a DpdError is excluded with a warning naming
    the error, and listed in `excluded`; ties break toward fewer
    parameters, then the fixed order exponential, gamma, lognormal,
    Weibull.
    """
    families = list(families)
    if not families:
        raise SelectionError("no candidate families given")
    order = {tag: i for i, tag in enumerate(FAMILIES)}
    records = []
    excluded = []
    for family in families:
        try:
            res = fit(family, RANK_ALPHA, sample)
            value = _criterion(res, sandwich(family, res.theta_hat, RANK_ALPHA))
        except DpdError as exc:
            why = f"{type(exc).__name__}: {exc}"
            warnings.warn(f"{family.tag}: {why}; excluded from selection", RuntimeWarning)
            excluded.append(family.tag)
        else:
            records.append(SelectionRecord(family, value, res))

    if not records:
        raise SelectionError(f"no candidate family could be scored at alpha={RANK_ALPHA:g}")
    winner = min(records, key=lambda r: (r.ric, r.family.param_count, order.get(r.family.tag, 99)))
    return SelectionReport(records=tuple(records), winner=winner.family, excluded=tuple(excluded))
