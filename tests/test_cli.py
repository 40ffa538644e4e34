"""End-to-end tests for the command line entry point.

Every command is driven through main(argv) the way a shell would, with
exit codes, stdout payloads, and side files checked against the
documented contracts. The report command is exercised on a four-series
panel whose generating families are known.
"""

import io
import json
import os

import numpy as np
import pytest

from dpdfit import cli, tuning
from dpdfit.cli import build_parser, emit_plot_data, main, parse_args
from dpdfit.dataio import REPORT_COLUMNS, Sample, load_csv
from dpdfit.errors import DomainError
from dpdfit.estimator import FitResult
from dpdfit.families import FAMILIES, ParamVector
from dpdfit.uncertainty import (
    ContaminationScheme,
    sample_family,
    simulate_contaminated,
)

EXPONENTIAL = FAMILIES["exponential"]
GAMMA = FAMILIES["gamma"]

PANEL_SETTINGS = (
    ("exponential", (1.0,), 0),
    ("gamma", (5.0, 1.0), 1),
    ("lognormal", (0.0, 1.0), 2),
    ("weibull", (5.0, 1.0), 3),
)


def write_series(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("year,value\n")
        for i, v in enumerate(values):
            fh.write(f"{1951 + i},{float(v)!r}\n")


@pytest.fixture()
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    write_series(path, [1.0, 2.0, 3.0])
    return str(path)


SIMULATE = ["simulate", "--family", "exponential", "--n", "10", "--seed", "0"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert main(["fit", "--family", "exponential"]) == 1

    def test_alpha_out_of_range(self, tiny_csv, capsys):
        rc = main(["fit", "--family", "exponential", "--input", tiny_csv, "--alpha", "1.5"])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_bootstrap_needs_two_replicates(self, tiny_csv, capsys):
        rc = main(["bootstrap", "--family", "exponential", "--input", tiny_csv, "-B", "1"])
        assert rc == 1

    def test_simulate_epsilon_without_target(self, capsys):
        rc = main([
            "simulate", "--family", "exponential",
            "--n", "10", "--seed", "0", "--epsilon", "0.1",
        ])
        assert rc == 1
        assert "point" in capsys.readouterr().err

    def test_simulate_point_and_displaced_conflict(self, capsys):
        rc = main([
            "simulate", "--family", "exponential",
            "--n", "10", "--seed", "0", "--epsilon", "0.1",
            "--point", "50",
            "--displaced-family", "exponential", "--displaced-theta", "0.01",
        ])
        assert rc == 1

    def test_two_parameter_family_requires_theta(self, capsys):
        assert main(["are-table", "--family", "gamma"]) == 1
        assert "theta" in capsys.readouterr().err

    def test_alphas_must_stay_in_unit_interval(self, capsys):
        for alphas in ("0.1,2.0", ""):
            rc = main(["are-table", "--family", "exponential", "--alphas", alphas])
            assert rc == 1
            assert "--alphas" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "bootstrap"])
    def test_negative_seed(self, command, tiny_csv, capsys):
        source = ["--n", "10"] if command == "simulate" else ["--input", tiny_csv]
        rc = main([command, "--family", "exponential", *source, "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: usage: --seed")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--point", "--y-min", "--y-max"])
    def test_non_finite_values(self, flag, value, capsys):
        if flag == "--point":
            argv = ["simulate", "--family", "exponential", "--n", "10", "--seed", "0", "--epsilon", "0.1"]
        else:
            argv = ["influence", "--family", "exponential"]
        rc = main([*argv, flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: usage: {flag} must be finite, got {value}\n"

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["are-table", "--family", "gamma", "--theta", "1,x"],
             "--theta must be comma-separated numbers, got '1,x'"),
            (["are-table", "--family", "exponential", "--theta", "-1"],
             "exponential rate must be positive, got -1.0"),
            ([*SIMULATE, "--displaced-family", "gamma"],
             "--displaced-family and --displaced-theta go together"),
            (["simulate", "--family", "exponential", "--n", "0", "--seed", "0"],
             "--n must be at least 1, got 0"),
            ([*SIMULATE, "--epsilon", "0.5"], "--epsilon must lie in [0, 0.5), got 0.5"),
            ([*SIMULATE, "--epsilon", "0.1", "--point", "-1"],
             "--point must be positive, got -1.0"),
            (["fit", "--family", "exponential", "--input", "series.csv", "--bins", "0"],
             "--bins must be at least 1, got 0"),
            (["influence", "--family", "exponential", "--points", "1"],
             "--points must be at least 2, got 1"),
        ],
        ids=["theta-text", "theta-domain", "displaced-pair", "n", "epsilon", "point", "bins",
             "points"],
    )
    def test_checked_flag(self, argv, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: usage: {message}\n"


class TestExitCodes:
    def test_missing_input_is_data_error(self, tmp_path, capsys):
        rc = main(["fit", "--family", "exponential", "--input", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: data:")

    def test_malformed_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("year,value\n1951,-3.0\n")
        rc = main(["fit", "--family", "exponential", "--input", str(path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "command",
        [["fit", "--family", "gamma"], ["tune", "--family", "gamma"], ["select"],
         ["bootstrap", "--family", "gamma", "-B", "10"]],
        ids=lambda command: command[0],
    )
    def test_input_with_no_wet_values_is_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "dry.csv"
        write_series(path, [0.0, 0.0, 0.0])
        assert main([*command, "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: data: no wet values to fit (3 dry)\n"

    def test_degenerate_sample_is_numeric_error(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_series(path, [2.0, 2.0, 2.0, 2.0])
        rc = main(["fit", "--family", "gamma", "--input", str(path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: numeric:")

    def test_other_exception_is_internal_error(self, tiny_csv, capsys, monkeypatch):
        """A handler's exception that is no DpdError exits 3, as internal."""

        def broken(*args):
            raise ZeroDivisionError("broken\n  fit")

        monkeypatch.setattr(cli, "fit", broken)
        assert main(["fit", "--family", "exponential", "--input", tiny_csv]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: internal: broken fit\n")


class TestParser:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_a_parse_leaves_no_state_for_the_next(self, tiny_csv):
        argv = ["fit", "--family", "exponential", "--input", tiny_csv]
        assert parse_args(argv + ["--alpha", "0.5", "--bins", "3"]).alpha == 0.5
        again = parse_args(argv)
        assert (again.alpha, again.bins, again.plot_data) == (0.0, 30, None)
        # another command's namespace holds none of fit's options
        tune = parse_args(["tune", "--family", "gamma", "--input", tiny_csv, "--fast"])
        assert tune.fast and not hasattr(tune, "alpha")
        assert parse_args(["select", "--input", tiny_csv]).family is None
        assert parse_args(["tune", "--family", "gamma", "--input", tiny_csv]).fast is False


class TestFitCommand:
    def test_refused_sandwich_prints_null_ses(self, tmp_path, capsys):
        """A fitted gamma shape of 0.430 at alpha = 0.5 is under the floor
        at 2 alpha, 0.5, so the sandwich is refused: the fit still prints,
        with null standard errors, and exits 0."""
        path = tmp_path / "low_shape.csv"
        write_series(path, sample_family(GAMMA, (0.4, 1.0), 200, 3).values)
        assert main(["fit", "--family", "gamma", "--input", str(path), "--alpha", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.4 < out["params"]["shape"] <= 0.5
        assert out["se_asymptotic"] is None

    def test_json_payload(self, tiny_csv, capsys):
        assert main(["fit", "--family", "exponential", "--input", tiny_csv]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["command"] == "fit"
        assert out["n_wet"] == 3
        assert out["dry_count"] == 0
        assert out["converged"] is True
        # MLE rate is 1/mean = 0.5 and its standard error rate/sqrt(n).
        assert out["params"]["rate"] == pytest.approx(0.5, rel=1e-6)
        assert out["se_asymptotic"]["rate"] == pytest.approx(0.5 / np.sqrt(3.0), rel=1e-6)

    def test_output_file(self, tiny_csv, tmp_path, capsys):
        target = tmp_path / "fit.json"
        rc = main(["fit", "--family", "exponential", "--input", tiny_csv,
                   "--output", str(target)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["params"]["rate"] == pytest.approx(0.5, rel=1e-6)

    def test_plot_data_file_has_both_blocks(self, tiny_csv, tmp_path, capsys):
        target = tmp_path / "plot.csv"
        rc = main(["fit", "--family", "exponential", "--input", tiny_csv,
                   "--plot-data", str(target), "--bins", "3"])
        assert rc == 0
        text = target.read_text()
        assert text.startswith("bin_left,bin_right,density")
        assert "x,f(x)" in text
        # JSON still lands on stdout.
        assert json.loads(capsys.readouterr().out)["command"] == "fit"


def _plot_blocks(text):
    hist_text, curve_text = text.split("\nx,f(x)\n")
    hist = [
        tuple(float(t) for t in line.split(","))
        for line in hist_text.splitlines()[1:]
        if line
    ]
    curve = [
        tuple(float(t) for t in line.split(","))
        for line in curve_text.strip().splitlines()
    ]
    return hist, curve


class TestEmitPlotData:
    def _fit_result(self, family, theta):
        return FitResult(
            family=family,
            alpha=0.0,
            theta_hat=ParamVector(family, theta),
            objective=0.0,
            converged=True,
            n_obs=4,
            evaluations=0,
        )

    def test_histogram_has_unit_area(self):
        sample = sample_family(GAMMA, (5.0, 1.0), 200, seed=12)
        res = self._fit_result(GAMMA, (5.0, 1.0))
        hist, _ = _plot_blocks(emit_plot_data(res, sample, bins=17))
        area = sum((right - left) * dens for left, right, dens in hist)
        assert area == pytest.approx(1.0, abs=1e-12)

    def test_curve_has_512_points(self):
        res = self._fit_result(EXPONENTIAL, (0.5,))
        _, curve = _plot_blocks(emit_plot_data(res, Sample(values=(1.0, 2.0, 3.0))))
        assert len(curve) == 512

    def test_exponential_curve_decreases_from_rate(self):
        res = self._fit_result(EXPONENTIAL, (0.5,))
        _, curve = _plot_blocks(emit_plot_data(res, Sample(values=(1.0, 2.0, 3.0))))
        fs = [f for _, f in curve]
        assert fs[0] == pytest.approx(0.5)
        assert all(a > b for a, b in zip(fs, fs[1:]))

    @pytest.mark.parametrize(
        ("tag", "theta", "limit"), [("gamma", (1.0, 2.0), 2.0), ("lognormal", (0.0, 1.0), 0.0)]
    )
    def test_curve_starts_at_density_limit(self, tag, theta, limit):
        """The point at x = 0 is the density's limit there: the rate for a
        unit gamma shape, 0 for a lognormal."""
        res = self._fit_result(FAMILIES[tag], theta)
        _, curve = _plot_blocks(emit_plot_data(res, Sample(values=(1.0, 2.0, 3.0))))
        assert curve[0] == (0.0, limit)

    def test_gamma_curve_peaks_at_mode(self):
        # Mode of gamma(a, b) is (a - 1)/b; the sampled peak may sit at
        # most one grid step away.
        res = self._fit_result(GAMMA, (22.35, 0.0594))
        sample = Sample(values=(50.0, 200.0, 400.0, 744.75))
        _, curve = _plot_blocks(emit_plot_data(res, sample, bins=4))
        xs = np.array([x for x, _ in curve])
        fs = np.array([f for _, f in curve])
        mode = (22.35 - 1.0) / 0.0594
        assert abs(xs[np.argmax(fs)] - mode) <= xs[1] - xs[0]

    def test_rejects_empty_bins(self):
        res = self._fit_result(EXPONENTIAL, (0.5,))
        with pytest.raises(DomainError):
            emit_plot_data(res, Sample(values=(1.0,)), bins=0)


class TestAreTableCommand:
    def test_known_efficiency_row(self, capsys):
        assert main(["are-table", "--family", "exponential", "--alphas", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,param,are"
        alpha, param, value = lines[1].split(",")
        assert (alpha, param) == ("0.1", "rate")
        assert round(float(value), 2) == 0.97


class TestInfluenceCommand:
    def test_curve_rows(self, capsys):
        rc = main(["influence", "--family", "exponential", "--alpha", "0.5",
                   "--points", "16", "--y-min", "0.5", "--y-max", "4.0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "y,param,value"
        assert len(lines) == 1 + 16
        assert all(line.split(",")[1] == "rate" for line in lines[1:])
        assert float(lines[1].split(",")[0]) == pytest.approx(0.5)
        assert float(lines[-1].split(",")[0]) == pytest.approx(4.0)

    def test_rejects_inverted_range(self, capsys):
        rc = main(["influence", "--family", "exponential",
                   "--y-min", "4.0", "--y-max", "0.5"])
        assert rc == 1


class TestSimulateCommand:
    def test_matches_library_sampler_bit_for_bit(self, tmp_path):
        target = tmp_path / "sim.csv"
        rc = main(["simulate", "--family", "gamma", "--theta", "5,1",
                   "--n", "40", "--seed", "9", "--output", str(target)])
        assert rc == 0
        loaded = load_csv(target)
        expected = sample_family(GAMMA, (5.0, 1.0), 40, seed=9)
        assert loaded.values == expected.values

    def test_repeat_runs_are_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--family", "weibull", "--theta", "5,1",
                "--n", "30", "--seed", "4"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_contamination_inserts_point(self, tmp_path):
        target = tmp_path / "contam.csv"
        rc = main(["simulate", "--family", "exponential",
                   "--n", "100", "--seed", "0",
                   "--epsilon", "0.1", "--point", "50",
                   "--output", str(target)])
        assert rc == 0
        loaded = load_csv(target)
        scheme = ContaminationScheme(0.1, 50.0, seed=0)
        expected = simulate_contaminated(EXPONENTIAL, (1.0,), scheme, 100)
        assert loaded.values == expected.values
        assert 2 <= sum(1 for v in loaded.values if v == 50.0) <= 25

    def test_header_is_year_value(self, capsys):
        rc = main(["simulate", "--family", "exponential", "--n", "3", "--seed", "1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "year,value"


class TestTuneCommand:
    def test_grid_mode_payload(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        write_series(path, sample_family(EXPONENTIAL, (1.0,), 120, seed=3).values)
        target = tmp_path / "curve.csv"
        rc = main(["tune", "--family", "exponential", "--input", str(path),
                   "--fast", "--curve-csv", str(target)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["command"] == "tune"
        # Grid mode leaves alpha on the 0.05 lattice.
        assert out["alpha_star"] == pytest.approx(round(out["alpha_star"] * 20) / 20)
        assert len(out["curve"]) == 21
        assert out["cvmd_star"] == pytest.approx(min(v for _, v in out["curve"]))
        assert target.read_text().splitlines()[0] == "alpha,cvmd"


class TestSelectCommand:
    def test_table_and_payload(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        write_series(path, sample_family(GAMMA, (5.0, 1.0), 80, seed=2).values)
        target = tmp_path / "table.csv"
        rc = main(["select", "--input", str(path), "--table-csv", str(target)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["winner"] in FAMILIES
        assert out["excluded"] == []
        assert len(out["families"]) == 4
        assert {r["family"] for r in out["families"]} == set(FAMILIES)
        assert {r["alpha"] for r in out["families"]} == {0.05}
        lines = target.read_text().splitlines()
        assert lines[0] == "family,alpha,ric"
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            f"{r['family']},0.05" for r in out["families"]
        ]

    def test_lists_the_excluded_families(self, tmp_path, capsys):
        """On a constant sample only the exponential can be scored; the
        others are named in candidate order."""
        path = tmp_path / "flat.csv"
        write_series(path, [2.0, 2.0, 2.0, 2.0])
        with pytest.warns(RuntimeWarning, match="excluded from selection"):
            assert main(["select", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["excluded"] == ["gamma", "lognormal", "weibull"]
        assert out["winner"] == "exponential"
        assert [r["family"] for r in out["families"]] == ["exponential"]

    def test_fast_is_not_an_option(self, tiny_csv, capsys):
        """Families are ranked at one alpha, so there is nothing to refine."""
        assert main(["select", "--input", tiny_csv, "--fast"]) == 1
        assert "--fast" in capsys.readouterr().err


class TestBootstrapCommand:
    def test_json_payload_and_estimates_file(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        write_series(path, sample_family(EXPONENTIAL, (1.0,), 60, seed=1).values)
        target = tmp_path / "reps.csv"
        rc = main(["bootstrap", "--family", "exponential", "--input", str(path),
                   "--alpha", "0.2", "-B", "25", "--seed", "1",
                   "--estimates-csv", str(target)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["B"] == 25
        assert out["failures"] + 0 >= 0
        assert out["se_bootstrap"]["rate"] > 0.0
        assert out["se_asymptotic"]["rate"] > 0.0
        assert target.read_text().splitlines()[0] == "replicate,param,value"


@pytest.fixture(scope="module")
def panel_reports(tmp_path_factory):
    """Run report twice on a known four-family panel: single-threaded
    and with RF_THREADS=2. Returns both output texts."""
    tmp = tmp_path_factory.mktemp("panel")
    panel = tmp / "panel.csv"
    with open(panel, "w", encoding="utf-8") as fh:
        fh.write("label,value\n")
        for tag, theta, seed in PANEL_SETTINGS:
            sample = sample_family(FAMILIES[tag], theta, 200, seed=seed)
            for v in sample.values:
                fh.write(f"{tag}-series,{v!r}\n")
    out1, out2 = tmp / "report1.csv", tmp / "report2.csv"
    saved = os.environ.pop("RF_THREADS", None)
    try:
        rc1 = main(["report", "--input", str(panel), "--fast", "--output", str(out1)])
        os.environ["RF_THREADS"] = "2"
        rc2 = main(["report", "--input", str(panel), "--fast", "--output", str(out2)])
    finally:
        if saved is None:
            os.environ.pop("RF_THREADS", None)
        else:
            os.environ["RF_THREADS"] = saved
    assert rc1 == 0 and rc2 == 0
    return out1.read_text(), out2.read_text()


class TestReportCommand:
    def test_schema_header(self, panel_reports):
        text, _ = panel_reports
        assert text.splitlines()[0] == ",".join(REPORT_COLUMNS)

    def test_recovers_generating_families(self, panel_reports):
        text, _ = panel_reports
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [r[0] for r in rows] == [f"{tag}-series" for tag, _, _ in PANEL_SETTINGS]
        for row, (tag, _, _) in zip(rows, PANEL_SETTINGS):
            fields = dict(zip(REPORT_COLUMNS, row))
            assert fields["family"] == tag
            assert 0.0 <= float(fields["alpha_star"]) <= 1.0
            assert float(fields["median_adjusted"]) > 0.0
            assert fields["se1"] != ""
            if tag == "exponential":
                assert fields["param2"] == ""
                assert fields["se2"] == ""
            else:
                assert fields["param2"] != ""

    def test_both_modes_pick_the_same_family(self, tmp_path):
        """report and report --fast rank the families alike, at one alpha:
        only the tuning of the winner's alpha differs between them."""
        panel = tmp_path / "panel.csv"
        with open(panel, "w", encoding="utf-8") as fh:
            fh.write("label,value\n")
            for tag, theta, seed in (("gamma", (4.0, 0.05), 13), ("weibull", (1.6, 0.02), 121)):
                for v in sample_family(FAMILIES[tag], theta, 60, seed=seed).values:
                    fh.write(f"{tag}-series,{v!r}\n")
        families = []
        for extra in ([], ["--fast"]):
            target = tmp_path / f"report{len(extra)}.csv"
            assert main(["report", "--input", str(panel), "--output", str(target), *extra]) == 0
            rows = [dict(zip(REPORT_COLUMNS, line.split(","))) for line in target.read_text().splitlines()[1:]]
            families.append([(row["label"], row["family"]) for row in rows])
        assert len(families[0]) == 2
        assert families[0] == families[1]

    def test_thread_count_does_not_change_output(self, panel_reports):
        text1, text2 = panel_reports
        assert text1 == text2

    def test_bad_series_is_skipped_with_message(self, tmp_path, capsys):
        panel = tmp_path / "mixed.csv"
        with open(panel, "w", encoding="utf-8") as fh:
            fh.write("label,value\n")
            for v in sample_family(EXPONENTIAL, (1.0,), 40, seed=6).values:
                fh.write(f"good,{v!r}\n")
            fh.write("bad,1.0\nbad,2.0\n")
        target = tmp_path / "report.csv"
        with pytest.warns(RuntimeWarning, match="excluded from selection"):
            rc = main(["report", "--input", panel.as_posix(), "--fast",
                       "--output", str(target)])
        assert rc == 0
        assert "skipped" in capsys.readouterr().err
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("good,")

    def test_series_with_no_wet_values_is_skipped(self, tmp_path, capsys, recwarn):
        """An all-dry series is skipped with one line saying so, before any
        family is tried; the other series is still written."""
        panel = tmp_path / "panel.csv"
        with open(panel, "w", encoding="utf-8") as fh:
            fh.write("label,value\n")
            for v in sample_family(EXPONENTIAL, (1.0,), 40, seed=6).values:
                fh.write(f"good,{v!r}\n")
            fh.write("dry,0.0\ndry,0.0\n")
        target = tmp_path / "report.csv"
        assert main(["report", "--input", str(panel), "--fast", "--output", str(target)]) == 0
        assert capsys.readouterr().err == "error: series 'dry' skipped: no wet values to fit (2 dry)\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("good,")

    def test_series_with_no_scored_alpha_is_skipped(self, tmp_path, capsys, monkeypatch):
        """A series whose held-out rows are all unsolved has no scored
        alpha; report skips it and still writes the other series."""
        panel = tmp_path / "panel.csv"
        with open(panel, "w", encoding="utf-8") as fh:
            fh.write("label,value\n")
            for label, n in (("good", 40), ("bad", 30)):
                for v in sample_family(EXPONENTIAL, (1.0,), n, seed=6).values:
                    fh.write(f"{label},{v!r}\n")
        loo_points = tuning._loo_points

        def unsolved_at_30(family, alphas, xs, starts):
            theta, solved = loo_points(family, alphas, xs, starts)
            return theta, solved & (xs.size != 30)

        monkeypatch.setattr(tuning, "_loo_points", unsolved_at_30)
        target = tmp_path / "report.csv"
        rc = main(["report", "--input", str(panel), "--fast", "--output", str(target)])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.startswith("error: series 'bad' skipped: no alpha could be scored")
        assert err.count("\n") == 1
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("good,")

    def test_one_sandwich_per_row(self, tmp_path, capsys, monkeypatch):
        """A report row takes its SEs and its RIC from one sandwich of its
        tuned fit, at its alpha_star."""
        from dpdfit import asymptotics

        panel = tmp_path / "panel.csv"
        with open(panel, "w", encoding="utf-8") as fh:
            fh.write("label,value\n")
            for v in sample_family(GAMMA, (5.0, 1.0), 60, seed=4).values:
                fh.write(f"one,{v!r}\n")
        assert main(["report", "--input", str(panel), "--fast"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        taken, sandwich = [], asymptotics.sandwich

        def counted(family, theta, alpha):
            taken.append(alpha)
            return sandwich(family, theta, alpha)

        monkeypatch.setattr(cli, "sandwich", counted)
        monkeypatch.setattr(asymptotics, "sandwich", lambda *args: pytest.fail("second sandwich"))
        assert main(["report", "--input", str(panel), "--fast"]) == 0
        assert len(taken) == 1
        fields = dict(zip(REPORT_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
        assert float(fields["alpha_star"]) == taken[0]
        assert ",".join(fields.values()) == row

    def test_all_series_failing_is_numeric_error(self, tmp_path, capsys):
        panel = tmp_path / "hopeless.csv"
        panel.write_text("label,value\nonly,1.0\nonly,2.0\n")
        with pytest.warns(RuntimeWarning, match="excluded from selection"):
            rc = main(["report", "--input", str(panel), "--fast"])
        assert rc == 3
        assert "every series failed" in capsys.readouterr().err

    def test_all_series_without_wet_values_is_data_error(self, tmp_path, capsys):
        """Every series failing for a data reason is a data error, as the
        same input is for fit, tune, select and bootstrap."""
        panel = tmp_path / "dry.csv"
        panel.write_text("label,value\ndry,0.0\ndry,0.0\ndry,0.0\n")
        assert main(["report", "--input", str(panel), "--fast"]) == 2
        assert capsys.readouterr().err == (
            "error: series 'dry' skipped: no wet values to fit (3 dry)\n"
            "error: data: every series failed\n"
        )

    def test_missing_panel_is_data_error(self, tmp_path):
        rc = main(["report", "--input", str(tmp_path / "none.csv")])
        assert rc == 2
