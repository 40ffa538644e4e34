"""CSV ingestion for positive-valued series, Tukey-fence outlier
summaries, and the dry-proportion-adjusted median.

This module is the package's one CSV reader and writer: every input
is read through _reader and every table written through write_rows,
in csv's default dialect (header row, \\r\\n row ends, minimal quoting;
input may carry a UTF-8 byte-order mark).

Zeros are stripped at ingestion and counted, so every downstream fit
sees wet values only; the dry proportion re-enters through
adjusted_median and nowhere else.
"""

import csv
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError, FitError
from .families import _check_x, quantile

__all__ = [
    "Sample",
    "OutlierSummary",
    "load_csv",
    "load_panel",
    "save_csv",
    "outlier_summary",
    "adjusted_median",
    "REPORT_COLUMNS",
    "write_report_rows",
]

# Column order of the per-series report; param2/se2 stay blank for the
# one-parameter family.
REPORT_COLUMNS = (
    "label",
    "family",
    "alpha_star",
    "param1",
    "param2",
    "se1",
    "se2",
    "cvmd",
    "ric",
    "median_adjusted",
)


@dataclass(frozen=True)
class Sample:
    """Positive observations plus the count of zeros removed upstream."""

    values: tuple
    dry_count: int = 0
    label: str = ""

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for v in vals:
            if not math.isfinite(v) or v <= 0.0:
                raise DataError(f"sample values must be positive and finite, got {v}")
        if not (isinstance(self.dry_count, numbers.Integral) and self.dry_count >= 0):
            raise DataError(f"dry_count must be a nonnegative integer, got {self.dry_count!r}")
        object.__setattr__(self, "dry_count", int(self.dry_count))

    @property
    def n(self):
        return len(self.values)

    @property
    def dry_proportion(self):
        total = len(self.values) + self.dry_count
        return self.dry_count / total if total else 0.0


@dataclass(frozen=True)
class OutlierSummary:
    q1: float
    q3: float
    iqr: float
    lower_fence: float
    upper_fence: float
    outlier_proportion: float


def _cell_text(raw, line_num, column):
    if raw is None or not str(raw).strip():
        raise DataError(f"blank or missing '{column}' cell at line {line_num}")
    return str(raw).strip()


def _parse_cell(raw, line_num, column):
    text = _cell_text(raw, line_num, column)
    if text.lower() in ("na", "nan", "null", "n/a"):
        raise DataError(f"missing value marker '{text}' at line {line_num}")
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"non-numeric '{column}' cell {text!r} at line {line_num}") from None
    if not math.isfinite(v):
        raise DataError(f"non-finite '{column}' cell {text!r} at line {line_num}")
    if v < 0.0:
        raise DataError(f"negative value {text} at line {line_num}")
    return v


@contextmanager
def _reader(path):
    """A csv.DictReader over the named file, header on line 1."""
    if not Path(path).is_file():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a header row")
        yield reader


def _pairs(reader, path, column, label_column=None):
    """Validated (label, value) pairs in file order; labels are None
    without a label column."""
    for name in (column, label_column):
        if name is not None and name not in reader.fieldnames:
            raise DataError(f"{path}: no column named {name!r}; found {reader.fieldnames}")
    for record in reader:
        v = _parse_cell(record.get(column), reader.line_num, column)
        label = None
        if label_column is not None:
            label = _cell_text(record.get(label_column), reader.line_num, label_column)
        yield label, v


def _assemble(pairs, label):
    wet = tuple(v for v in pairs if v > 0.0)
    dry = len(pairs) - len(wet)
    return Sample(values=wet, dry_count=dry, label=label)


def load_csv(path, column="value", label=None):
    """One series from a headered CSV; zeros become dry_count.

    Negative, blank, missing, or non-numeric cells raise DataError
    naming the offending line (header is line 1).
    """
    with _reader(path) as reader:
        values = [v for _, v in _pairs(reader, path, column)]
    return _assemble(values, label if label is not None else Path(path).stem)


def load_panel(path, column="value", label_column="label"):
    """Multiple series keyed by a label column, first-appearance order.

    With label_column=None the header decides, in the one read of the
    file: a 'label' column keys the series when there is one, else the
    whole file is one series named by the file stem.
    """
    with _reader(path) as reader:
        if label_column is None and "label" in reader.fieldnames:
            label_column = "label"
        pairs = _pairs(reader, path, column, label_column)
        if label_column is None:
            return [_assemble([v for _, v in pairs], Path(path).stem)]
        grouped = {}
        for label, v in pairs:
            grouped.setdefault(label, []).append(v)
    return [_assemble(vals, label) for label, vals in grouped.items()]


@contextmanager
def open_sink(path_or_fp):
    """The stream itself when it has a write method, else the named file
    opened for text writing (closed on exit). Every writer goes through here."""
    if hasattr(path_or_fp, "write"):
        yield path_or_fp
    else:
        with open(path_or_fp, "w", newline="", encoding="utf-8") as fh:
            yield fh


def write_rows(path_or_fp, header, rows):
    """The one CSV writer: the header, then the rows as the iterable
    yields them. Callers format their own cells."""
    with open_sink(path_or_fp) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(sample, path_or_fp):
    """Write year,value rows; values keep full repr precision so a
    reload is bit-exact. Dry months come last as zero rows."""
    cells = chain((repr(float(v)) for v in sample.values), repeat("0.0", sample.dry_count))
    write_rows(path_or_fp, ["year", "value"], enumerate(cells, 1))


def outlier_summary(sample):
    """Tukey fences at 1.5 IQR, quartiles by linear interpolation of
    order statistics; the proportion counts strict fence violations
    among the positive values, as a percentage. Takes a Sample or plain
    values, checked by families._check_x."""
    xs = _check_x(sample)
    if xs.size < 4:
        raise DataError(f"outlier summary needs at least 4 values, got {xs.size}")
    q1 = float(np.quantile(xs, 0.25))
    q3 = float(np.quantile(xs, 0.75))
    iqr = q3 - q1
    lower = q1 - 1.5 * iqr
    upper = q3 + 1.5 * iqr
    count = int(np.count_nonzero((xs < lower) | (xs > upper)))
    return OutlierSummary(
        q1=q1,
        q3=q3,
        iqr=iqr,
        lower_fence=lower,
        upper_fence=upper,
        outlier_proportion=100.0 * count / xs.size,
    )


def adjusted_median(fit_result, dry_count):
    """Median of the zero-inflated mixture in data units.

    With dry proportion p = dry/(dry + wet), the wet count being the
    fit's n_obs, at least 1: zero when p > 0.5, and the (0.5 - p)/(1 - p)
    quantile of the fitted law otherwise. At exactly p = 0.5 the rule
    asks for the level-0 quantile, which is the left support endpoint:
    zero.
    """
    if not fit_result.converged:
        raise FitError("adjusted median requires a converged fit")
    if not (isinstance(dry_count, numbers.Integral) and dry_count >= 0):
        raise DomainError(f"need an integer dry_count >= 0, got {dry_count!r}")
    if fit_result.n_obs < 1:
        raise DomainError(f"need a fit of at least one wet value, got n_obs={fit_result.n_obs!r}")
    p = dry_count / (dry_count + fit_result.n_obs)
    if p >= 0.5:
        return 0.0
    return float(quantile(fit_result.theta_hat, (0.5 - p) / (1.0 - p)))


def _format_field(v):
    if v is None or v == "":
        return ""
    if isinstance(v, str):
        return v
    return f"{float(v):.10g}"


def write_report_rows(rows, path_or_fp):
    """Report CSV with the fixed REPORT_COLUMNS schema."""
    write_rows(
        path_or_fp,
        REPORT_COLUMNS,
        ([_format_field(row.get(col)) for col in REPORT_COLUMNS] for row in rows),
    )
