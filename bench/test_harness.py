"""Self-tests for the benchmark harness, at a tiny input size.

    python3 -m pytest -q bench/test_harness.py

They run a handful of small CLI jobs through the same Runner, tracer
and metric code that run.py uses, in about a minute. Most of that is
the tiny report, whose RIC quadrature does not shrink with n.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import dpdfit.cli  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402
from workloads import Job, _write_panel, _write_values  # noqa: E402


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    rng = np.random.default_rng(5)
    expo = rng.exponential(2.0, 12)
    _write_values(d / "gamma.csv", rng.gamma(3.0, 2.0, 40))
    _write_values(d / "expo.csv", expo)
    _write_panel(d / "panel.csv", [("a", expo, 1), ("b", rng.exponential(3.0, 12), 0)])
    return d


@pytest.fixture(scope="module")
def tiny_jobs(tiny_dir):
    d = tiny_dir
    return [
        Job("fit", "fit", ["fit", "--family", "gamma", "--input", str(d / "gamma.csv"), "--alpha", "0.3"]),
        Job("tune", "tune", ["tune", "--family", "exponential", "--input", str(d / "expo.csv"), "--fast"]),
        Job("boot", "bootstrap", ["bootstrap", "--family", "gamma", "--input", str(d / "gamma.csv"),
                                  "--alpha", "0.3", "-B", "4", "--seed", "1"]),
        Job("sim", "simulate", ["simulate", "--family", "gamma", "--theta", "2,0.5", "--n", "20",
                                "--seed", "3", "--epsilon", "0.1", "--point", "30"]),
        Job("are", "are", ["are-table", "--family", "exponential", "--alphas", "0.1,0.5"]),
        Job("infl", "influence", ["influence", "--family", "exponential", "--alpha", "0.5", "--points", "8"]),
    ]


@pytest.fixture(scope="module")
def report_job(tiny_dir):
    # The slowest tiny job, so only the per-layer test runs it: it covers
    # the thread pool, wait_s and spans on more than one thread.
    panel = str(tiny_dir / "panel.csv")
    return Job("report", "report", ["report", "--input", panel, "--fast"], env={"RF_THREADS": "2"})


@pytest.fixture(scope="module")
def expected(tiny_jobs, report_job):
    out = {}
    for job in tiny_jobs + [report_job]:
        _, code, stdout, stderr = run.run_job(job, dpdfit.cli)
        assert code == 0, stderr
        out[job.name] = checks.summarize(job.kind, stdout)
    return out


def _benchmark_names(key):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[key]}


def test_every_end_to_end_metric_is_emitted(tiny_jobs, expected):
    runner = run.Runner(dpdfit.cli, checks, tiny_jobs, expected)
    metrics = run.measure(runner, 0.01, 0)
    metrics["setup_s"] = {"value": 1.0, "unit": "s"}  # added by main() from the set-up probes
    assert set(metrics) == _benchmark_names("end_to_end")
    assert runner.failed == 0, runner.problems
    assert metrics["ok_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in metrics.values())


def test_every_per_layer_metric_is_emitted(tiny_jobs, report_job, expected, tmp_path):
    jobs = tiny_jobs + [report_job]
    runner = run.Runner(dpdfit.cli, checks, jobs, expected)
    metrics = run.measure(runner, 0.01, 1, str(tmp_path / "spans.json"))
    assert set(metrics) == set(run.PER_LAYER) == _benchmark_names("per_layer")
    # The Runner also fails any traced job whose output differs from its untraced pass.
    assert runner.failed == 0, runner.problems
    v = {k: m["value"] for k, m in metrics.items()}
    assert v["estimator.fit_full.calls"] > 0 and v["estimator.fit_fast.calls"] > 0
    assert v["estimator.fit_warm.calls"] > 0 and v["estimator.fit_warm.evals"] > 0
    assert v["asymptotics.sandwich.calls"] > 0 and v["numerics.integrate_halfline.calls"] > 0
    assert v["numerics.invert_cdf.calls"] > 0 and v["families.cdf.calls"] > 0
    assert v["selection.select_model.calls"] == 2  # one per series, across the two threads
    assert v["cli.main.calls"] == len(jobs)
    assert v["selection.select_model.wait_s"] >= 0
    # The series run on pool threads; their spans still count as cli.main's children.
    assert v["cli.main.self_s"] < v["selection.select_model.total_s"] / 2
    for key in ("asymptotics.sandwich", "tuning.cvm_distance", "estimator.fit_full"):
        assert 0 <= v[key + ".self_s"] <= v.get(key + ".total_s", v[key + ".self_s"]) + 1e-9
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert sum(len(t["spans"]) for t in spans["threads"]) > 0


def test_traced_and_untraced_outputs_are_identical(tiny_jobs):
    outputs = {}
    for traced in (False, True):
        tracer = Tracer()
        if traced:
            tracer.install()
        try:
            for job in tiny_jobs:
                _, code, stdout, _ = run.run_job(job, dpdfit.cli)
                assert code == 0
                outputs.setdefault(job.name, []).append(stdout)
        finally:
            tracer.uninstall()
    for name, (plain, traced) in outputs.items():
        assert plain == traced, name


def test_tracer_leaves_no_patched_names(tiny_jobs):
    before = {
        (n, a): v
        for n, m in sys.modules.items()
        if n == "dpdfit" or n.startswith("dpdfit.")
        for a, v in vars(m).items()
    }
    with Tracer() as tracer:
        assert len(tracer._patched) > 0
        # fit is bound in the importing modules too, not only in estimator.
        patched = {(m.__name__, a) for m, a, _ in tracer._patched}
        for mod in ("tuning", "selection", "uncertainty", "cli", "estimator"):
            assert (f"dpdfit.{mod}", "fit") in patched
        assert ("dpdfit.asymptotics", "integrate_halfline") in patched
        assert ("dpdfit.estimator", "integrate_halfline") in patched
        run.run_job(tiny_jobs[0], dpdfit.cli)
    assert leftover_wrappers() == []
    for (n, a), v in before.items():
        assert vars(sys.modules[n])[a] is v, (n, a)


def test_checks_catch_wrong_answers(expected):
    report = {k: v for k, v in expected["report"].items()}
    assert checks.compare("report", report, dict(report)) == []
    family_key = next(k for k in report if k.endswith("/family"))
    wrong = dict(report, **{family_key: "weibull" if report[family_key] != "weibull" else "gamma"})
    assert checks.compare("report", report, wrong)
    alpha_key = next(k for k in report if k.endswith("/alpha_star"))
    assert checks.compare("report", report, dict(report, **{alpha_key: report[alpha_key] + 0.05}))
    param_key = next(k for k in report if k.endswith("/param1"))
    assert checks.compare("report", report, dict(report, **{param_key: float("nan")}))
    tune = expected["tune"]
    assert checks.compare("tune", tune, dict(tune, alpha_star=tune["alpha_star"] + 0.05))
    assert checks.compare("tune", tune, dict(tune, cvmd_star=float("nan")))
    assert checks.compare("tune", tune, dict(tune, alpha_star=tune["alpha_star"] + 0.004)) == []
    fit = expected["fit"]
    nudged = {k: v * (1 + 1e-9) if isinstance(v, float) else v for k, v in fit.items()}
    assert checks.compare("fit", fit, nudged) == []
