"""Tests for CSV ingestion, outlier summaries, and the adjusted median.

Malformed input must fail loudly with the offending line named; clean
input must survive a save/load roundtrip bit for bit.
"""

import builtins
import io
import math

import numpy as np
import pytest

from conftest import as_sample, write_csv
from dpdfit.asymptotics import AreTable
from dpdfit.cli import main
from dpdfit.dataio import (
    REPORT_COLUMNS,
    Sample,
    adjusted_median,
    load_csv,
    load_panel,
    outlier_summary,
    save_csv,
    write_report_rows,
)
from dpdfit.errors import DataError, DomainError, FitError
from dpdfit.estimator import FitResult, fit
from dpdfit.families import FAMILIES, ParamVector, quantile
from dpdfit.selection import SelectionRecord, SelectionReport
from dpdfit.tuning import TuningResult
from dpdfit.uncertainty import (
    BootstrapResult,
    ContaminationScheme,
    sample_family,
    simulate_contaminated,
)

EXPONENTIAL = FAMILIES["exponential"]
GAMMA = FAMILIES["gamma"]
LOGNORMAL = FAMILIES["lognormal"]
WEIBULL = FAMILIES["weibull"]


class TestSample:
    def test_rejects_negative_value(self):
        with pytest.raises(DataError, match="positive"):
            Sample(values=(1.0, -2.0))

    def test_rejects_zero_value(self):
        # Zeros belong to the loader's dry count, never to values.
        with pytest.raises(DataError):
            Sample(values=(1.0, 0.0))

    def test_rejects_non_finite_value(self):
        with pytest.raises(DataError):
            Sample(values=(1.0, float("inf")))

    def test_rejects_negative_dry_count(self):
        with pytest.raises(DataError, match="dry_count"):
            Sample(values=(1.0,), dry_count=-1)

    def test_rejects_fractional_dry_count(self):
        with pytest.raises(DataError):
            Sample(values=(1.0,), dry_count=1.5)

    def test_counts_and_proportion(self):
        sample = Sample(values=(2.0, 3.0), dry_count=2, label="x")
        assert sample.n == 2
        assert sample.dry_proportion == 0.5

    def test_coerces_values_to_float_tuple(self):
        sample = Sample(values=[1, 2, 3])
        assert sample.values == (1.0, 2.0, 3.0)
        assert isinstance(sample.values, tuple)


class TestLoadCsv:
    def test_zeros_become_dry_count(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, [0.0, 5.5, 0.0, 12.0])
        sample = load_csv(path)
        assert sample.values == (5.5, 12.0)
        assert sample.dry_count == 2
        assert sample.dry_proportion == 0.5

    def test_label_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "ranchi.csv"
        write_csv(path, [1.0, 2.0])
        assert load_csv(path).label == "ranchi"

    def test_explicit_label_wins(self, tmp_path):
        path = tmp_path / "ranchi.csv"
        write_csv(path, [1.0, 2.0])
        assert load_csv(path, label="station 7").label == "station 7"

    def test_negative_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,value\n1951,3.0\n1952,-1.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,value\n1951,3.0\n1952,oops\n1953,4.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_missing_value_marker_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,value\n1951,NA\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path)

    def test_blank_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,value\n1951,\n1952,2.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_missing_column_lists_found(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("year,rain\n1951,3.0\n")
        with pytest.raises(DataError, match="'value'"):
            load_csv(path)

    def test_alternate_column_name(self, tmp_path):
        path = tmp_path / "odd.csv"
        write_csv(path, [4.0, 6.0], column="rain")
        assert load_csv(path, column="rain").values == (4.0, 6.0)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            load_csv(path)

    def test_sixty_four_year_series(self, tmp_path, rng):
        values = list(np.round(rng.gamma(5.0, 2.0, size=64), 6))
        values[10] = 0.0
        values[40] = 0.0
        path = tmp_path / "station.csv"
        write_csv(path, values)
        sample = load_csv(path)
        assert sample.n + sample.dry_count == 64
        assert sample.dry_count == 2


class TestSaveLoadRoundtrip:
    def test_values_survive_bit_exact(self, tmp_path):
        original = Sample(
            values=(1.0 / 3.0, 2.718281828459045, 1e-8, 744.75),
            dry_count=3,
            label="roundtrip",
        )
        path = tmp_path / "roundtrip.csv"
        save_csv(original, path)
        loaded = load_csv(path, label="roundtrip")
        assert loaded.values == original.values
        assert loaded.dry_count == original.dry_count

    def test_writes_to_file_like(self):
        buf = io.StringIO()
        save_csv(Sample(values=(1.5,), dry_count=1), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "year,value"
        assert len(lines) == 3
        assert lines[-1].endswith(",0.0")


class TestLoadPanel:
    def test_groups_by_label_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "label,value\n"
            "south,1.0\n"
            "north,2.0\n"
            "south,0\n"
            "north,4.0\n"
            "south,3.0\n"
        )
        samples = load_panel(path)
        assert [s.label for s in samples] == ["south", "north"]
        south, north = samples
        assert south.values == (1.0, 3.0)
        assert south.dry_count == 1
        assert north.values == (2.0, 4.0)
        assert north.dry_count == 0

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("site,value\na,1.0\n")
        with pytest.raises(DataError, match="'label'"):
            load_panel(path)

    def test_alternate_label_column(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("site,value\na,1.0\nb,2.0\n")
        samples = load_panel(path, label_column="site")
        assert [s.label for s in samples] == ["a", "b"]

    @pytest.mark.parametrize(
        "text",
        [
            "label,value\na,1.0\n,3.0\n",  # blank label cell
            "label,value\na,1.0\n   ,3.0\n",  # whitespace only
            "value,label\n1.0,a\n3.0\n",  # short row: no label cell at all
        ],
    )
    def test_blank_or_missing_label_names_line(self, tmp_path, text):
        """A row without a label is an error, not a series labelled ''."""
        path = tmp_path / "panel.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="'label' cell at line 3"):
            load_panel(path)


class TestLoadPanelWithoutLabelColumn:
    """label_column=None: one read of the header decides how the file
    splits into series, as the report command reads its input."""

    def test_label_column_groups_when_present(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("label,value\nsouth,1.0\nnorth,2.0\nsouth,0\n")
        samples = load_panel(path, label_column=None)
        assert [(s.label, s.values, s.dry_count) for s in samples] == [
            ("south", (1.0,), 1),
            ("north", (2.0,), 0),
        ]

    def test_without_label_column_the_file_is_one_series(self, tmp_path):
        path = tmp_path / "ranchi.csv"
        path.write_text("year,value\n1951,1.0\n1952,0\n")
        (sample,) = load_panel(path, label_column=None)
        assert (sample.label, sample.values, sample.dry_count) == ("ranchi", (1.0,), 1)

    def test_report_opens_its_input_once(self, tmp_path, monkeypatch):
        path = tmp_path / "panel.csv"
        values = sample_family(GAMMA, (2.0, 1.0), 20, seed=5).values
        path.write_text("label,value\n" + "".join(f"a,{v!r}\n" for v in values))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["report", "--input", str(path), "--fast"]) == 0
        assert opened.count(str(path)) == 1


class TestOutlierSummary:
    def test_hand_quartiles_without_outliers(self):
        summary = outlier_summary(as_sample([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert summary.q1 == pytest.approx(2.0)
        assert summary.q3 == pytest.approx(4.0)
        assert summary.iqr == pytest.approx(2.0)
        assert summary.lower_fence == pytest.approx(-1.0)
        assert summary.upper_fence == pytest.approx(7.0)
        assert summary.outlier_proportion == 0.0

    def test_single_far_point_is_twenty_percent(self):
        summary = outlier_summary(as_sample([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert summary.upper_fence == pytest.approx(7.0)
        assert summary.outlier_proportion == pytest.approx(20.0)

    def test_permutation_invariance(self, rng):
        values = list(rng.gamma(5.0, 2.0, size=40)) + [500.0]
        a = outlier_summary(as_sample(values))
        shuffled = list(values)
        rng.shuffle(shuffled)
        b = outlier_summary(as_sample(shuffled))
        assert a == b

    def test_needs_four_values(self):
        with pytest.raises(DataError, match="at least 4"):
            outlier_summary(as_sample([1.0, 2.0, 3.0]))

    def test_takes_plain_values(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert outlier_summary(values) == outlier_summary(as_sample(values))

    def test_rejects_values_not_finite(self):
        with pytest.raises(DomainError, match="finite"):
            outlier_summary([1.0, 2.0, math.nan, 4.0])

    def test_flags_injected_contamination_fraction(self):
        # 10% point contamination far beyond the fences should be
        # reported at close to its injection rate.
        point = 20.0 * float(quantile(ParamVector(EXPONENTIAL, (1.0,)), 0.99))
        scheme = ContaminationScheme(0.1, point, seed=1)
        sample = simulate_contaminated(EXPONENTIAL, (1.0,), scheme, 1000)
        summary = outlier_summary(sample)
        assert 8.0 <= summary.outlier_proportion <= 12.0


@pytest.fixture(scope="module")
def exp_fit():
    sample = sample_family(EXPONENTIAL, (1.0,), 400, seed=8)
    return fit(EXPONENTIAL, 0.0, sample)


class TestAdjustedMedian:
    def test_majority_dry_gives_zero(self, exp_fit):
        assert adjusted_median(exp_fit, dry_count=600, n_wet=400) == 0.0

    def test_exactly_half_dry_gives_zero(self, exp_fit):
        assert adjusted_median(exp_fit, dry_count=400, n_wet=400) == 0.0

    def test_twenty_percent_dry_hits_shifted_quantile(self, exp_fit):
        # p = 0.2 maps the mixture median to the (0.5 - p)/(1 - p)
        # quantile of the positive part, the 0.375 level.
        got = adjusted_median(exp_fit, dry_count=100, n_wet=400)
        assert got == float(quantile(exp_fit.theta_hat, (0.5 - 0.2) / (1.0 - 0.2)))
        assert got == pytest.approx(
            float(quantile(exp_fit.theta_hat, 0.375)), rel=1e-12
        )

    def test_no_dry_gives_plain_median(self, exp_fit):
        got = adjusted_median(exp_fit, dry_count=0, n_wet=400)
        assert got == float(quantile(exp_fit.theta_hat, 0.5))

    def test_n_wet_defaults_to_fit_size(self, exp_fit):
        assert adjusted_median(exp_fit, dry_count=100) == adjusted_median(
            exp_fit, dry_count=100, n_wet=exp_fit.n_obs
        )

    def test_nonincreasing_in_dry_proportion(self, exp_fit):
        medians = [
            adjusted_median(exp_fit, dry_count=d, n_wet=400)
            for d in (0, 50, 100, 200, 300, 400, 500)
        ]
        assert all(a >= b for a, b in zip(medians, medians[1:]))

    def test_requires_converged_fit(self, exp_fit):
        broken = FitResult(
            family=EXPONENTIAL,
            alpha=0.0,
            theta_hat=exp_fit.theta_hat,
            objective=0.0,
            converged=False,
            n_obs=400,
            evaluations=0,
        )
        with pytest.raises(FitError, match="converged"):
            adjusted_median(broken, dry_count=0)

    def test_rejects_bad_counts(self, exp_fit):
        with pytest.raises(DomainError):
            adjusted_median(exp_fit, dry_count=-1)
        with pytest.raises(DomainError):
            adjusted_median(exp_fit, dry_count=0, n_wet=0)


class TestWriteReportRows:
    def test_header_matches_schema(self):
        buf = io.StringIO()
        write_report_rows([], buf)
        assert buf.getvalue().splitlines() == [",".join(REPORT_COLUMNS)]

    def test_one_parameter_rows_leave_second_slots_blank(self):
        buf = io.StringIO()
        write_report_rows(
            [
                {
                    "label": "station 7",
                    "family": "exponential",
                    "alpha_star": 0.25,
                    "param1": 0.5,
                    "se1": 0.01,
                    "cvmd": 0.0125,
                    "ric": -1.5,
                    "median_adjusted": 1.2,
                }
            ],
            buf,
        )
        row = buf.getvalue().splitlines()[1].split(",")
        fields = dict(zip(REPORT_COLUMNS, row))
        assert fields["label"] == "station 7"
        assert fields["param2"] == ""
        assert fields["se2"] == ""
        assert fields["alpha_star"] == "0.25"

    def test_writes_to_path(self, tmp_path):
        target = tmp_path / "report.csv"
        write_report_rows([], target)
        assert target.read_text().strip() == ",".join(REPORT_COLUMNS)


_GAMMA_FIT = FitResult(GAMMA, 0.5, ParamVector(GAMMA, (2.0, 0.5)), 0.0, True, 4, 1)

# Each CSV the package writes, on a small fixed input, with the exact
# bytes of its file: header row, \r\n row ends, csv's minimal quoting
# and each writer's own number format.
WRITER_BYTES = {
    "AreTable.to_csv": (
        lambda p: AreTable(GAMMA, None, {0.25: (0.5, 1 / 3), 1.0: (0.125, 0.0625)}).to_csv(p),
        b"alpha,param,are\r\n0.25,shape,0.500000\r\n0.25,rate,0.333333\r\n"
        b"1,shape,0.125000\r\n1,rate,0.062500\r\n",
    ),
    "TuningResult.curve_to_csv": (
        lambda p: TuningResult(
            EXPONENTIAL, None, {0.05: 1 / 7, 0.0: 0.25, 1 / 3: 2e-13}, 0.0, 0.25, None
        ).curve_to_csv(p),
        b"alpha,cvmd\r\n0,0.25\r\n0.05,0.142857142857\r\n0.3333333333,2e-13\r\n",
    ),
    "SelectionReport.table_to_csv": (
        lambda p: SelectionReport(
            (
                SelectionRecord(GAMMA, 1e-9, FitResult(GAMMA, 0.05, None, 0.0, True, 4, 1)),
                SelectionRecord(LOGNORMAL, 123456.789, FitResult(LOGNORMAL, 0.5, None, 0.0, True, 4, 1)),
                SelectionRecord(WEIBULL, -1 / 3, FitResult(WEIBULL, 1 / 3, None, 0.0, True, 4, 1)),
            ),
            None,
            (),
        ).table_to_csv(p),
        b"family,alpha,ric\r\ngamma,0.05,1e-09\r\nlognormal,0.5,123456.789\r\n"
        b"weibull,0.3333333333,-0.333333333333\r\n",
    ),
    "BootstrapResult.estimates_to_csv": (
        lambda p: BootstrapResult(
            _GAMMA_FIT, 3, None, ((2.0, 0.1), (2.5, 1 / 3)), (1, 3), 1
        ).estimates_to_csv(p),
        b"replicate,param,value\r\n1,shape,2.0\r\n1,rate,0.1\r\n"
        b"3,shape,2.5\r\n3,rate,0.3333333333333333\r\n",
    ),
    "save_csv": (
        lambda p: save_csv(Sample((1.5, 0.1, 1 / 3), dry_count=2), p),
        b"year,value\r\n1,1.5\r\n2,0.1\r\n3,0.3333333333333333\r\n4,0.0\r\n5,0.0\r\n",
    ),
    "write_report_rows": (
        lambda p: write_report_rows(
            [
                {"label": "station 7, north", "family": "exponential", "alpha_star": 0.25,
                 "param1": 1 / 3, "se1": 0.01, "cvmd": 0.0125, "ric": -1.5,
                 "median_adjusted": 1.2},
                {"label": 'say "hi"', "family": "gamma", "alpha_star": 0.0, "param1": 2.0,
                 "param2": 1e-12, "se1": None, "se2": "", "cvmd": 123456789012.0, "ric": 0.1,
                 "median_adjusted": 0.0},
            ],
            p,
        ),
        b"label,family,alpha_star,param1,param2,se1,se2,cvmd,ric,median_adjusted\r\n"
        b'"station 7, north",exponential,0.25,0.3333333333,,0.01,,0.0125,-1.5,1.2\r\n'
        b'"say ""hi""",gamma,0,2,1e-12,,,1.23456789e+11,0.1,0\r\n',
    ),
    "cli influence": (
        lambda p: main(["influence", "--family", "exponential", "--alpha", "0.5", "--points", "3",
                        "--y-min", "1", "--y-max", "2", "--output", str(p)]),
        b"y,param,value\r\n1,rate,-0.6\r\n1.5,rate,-1.2376948462\r\n2,rate,-1.59327449116\r\n",
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITER_BYTES))
def test_writer_bytes(writer, tmp_path):
    write, expected = WRITER_BYTES[writer]
    target = tmp_path / "out.csv"
    write(target)
    assert target.read_bytes() == expected
