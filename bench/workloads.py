"""Seeded inputs and fixed job lists for the three benchmark workloads.

Inputs come from numpy's own Generator only, so they do not move when
dpdfit changes; the `simulate` jobs of robust_study are the one
deliberate exception, since dpdfit's sampler is what they exercise.

A run's --seed picks one of POOL recorded input sets (seed mod POOL).
reference.json holds, for each set, the generator key its inputs come
from and every job's recorded output, which is what lets each job be
checked whatever seed the run is given. The key of set k is k unless
the recorder found one of its answers within a hair of a tie (see
record_reference.py); then it is the next of k + POOL, k + 2 POOL, ...
"""

import csv
import os

import numpy as np

POOL = 32

# Parameters in dpdfit's own convention: gamma and Weibull take (shape,
# rate), lognormal (log_mean, log_sd), exponential (rate,).
STATION = {"gamma": (4.0, 0.05), "weibull": (1.6, 0.02), "lognormal": (4.0, 0.6), "exponential": (0.02,)}
STUDY = {"gamma": (2.0, 0.5), "weibull": (1.5, 0.5)}

_WORKLOAD_IDS = {"report_panel": 1, "tune_loo": 2, "robust_study": 3}


def pool_index(seed):
    return int(seed) % POOL


def _rng(workload, key):
    return np.random.default_rng([_WORKLOAD_IDS[workload], key])


def _iid(rng, family, theta, size):
    if family == "gamma":
        return rng.gamma(theta[0], 1.0 / theta[1], size)
    if family == "weibull":
        return rng.weibull(theta[0], size) / theta[1]
    if family == "lognormal":
        return rng.lognormal(theta[0], theta[1], size)
    if family == "exponential":
        return rng.exponential(1.0 / theta[0], size)
    raise ValueError(family)


def _draw(rng, family, theta, n, spread=64):
    """n values, one from each of n equal-probability strata of the law.

    An iid sample can land far from the law's shape, and dpdfit's work
    (quadrature panels, simplex steps, the family RIC picks) follows the
    shape: iid panels cost 11% more or less from seed to seed, stratified
    ones 2.5%. Stratifying keeps one seed's cost close to another's.
    Sorting spread * n iid draws and taking one at a random rank inside
    each block of `spread` stratifies without the quantile function,
    which numpy lacks for the gamma.
    """
    pool = np.sort(_iid(rng, family, theta, n * spread))
    values = pool[np.arange(n) * spread + rng.integers(0, spread, n)]
    rng.shuffle(values)
    return values


def _contaminate(rng, values, fraction, point):
    """Replace round(fraction * n) randomly chosen values with `point`."""
    out = values.copy()
    k = int(round(fraction * out.size))
    out[rng.choice(out.size, size=k, replace=False)] = point
    return out


def _write_values(path, values):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value"])
        for v in values:
            writer.writerow([repr(float(v))])


def _write_panel(path, series):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "year", "value"])
        for label, wet, dry in series:
            rows = [repr(float(v)) for v in wet] + ["0.0"] * dry
            for i, v in enumerate(rows):
                writer.writerow([label, 1951 + i, v])


class Job:
    """One CLI call: its name, output kind, argv and the environment it needs."""

    def __init__(self, name, kind, argv, env=None):
        self.name = name
        self.kind = kind
        self.argv = argv
        self.env = env or {}


def write_inputs(workload, key, workdir):
    """Write the inputs drawn from generator `key` into workdir; return the jobs."""
    rng = _rng(workload, key)
    os.makedirs(workdir, exist_ok=True)
    path = lambda name: os.path.join(workdir, name)

    if workload == "report_panel":
        # Two stations shaped like demos/rainfall_report.py: a gamma-like
        # June and a Weibull-like October, each with a few dry months.
        series = [
            ("station-jun", _draw(rng, "gamma", STATION["gamma"], 58), 6),
            ("station-oct", _draw(rng, "weibull", STATION["weibull"], 62), 2),
        ]
        _write_panel(path("panel.csv"), series)
        return [
            Job(
                "report",
                "report",
                ["report", "--input", path("panel.csv"), "--fast"],
                env={"RF_THREADS": "2"},
            )
        ]

    if workload == "tune_loo":
        jobs = []
        for family in ("exponential", "gamma", "lognormal", "weibull"):
            clean = _draw(rng, family, STATION[family], 60)
            # 5% point contamination far in the right tail pulls
            # alpha_star away from 0.
            dirty = _contaminate(rng, clean, 0.05, 8.0 * float(np.mean(clean)))
            _write_values(path(f"{family}.csv"), dirty)
            jobs.append(
                Job(f"tune-{family}", "tune", ["tune", "--family", family, "--input", path(f"{family}.csv")])
            )
        return jobs

    if workload == "robust_study":
        sim_seed = 1000 + key
        theta = {f: ",".join(repr(v) for v in t) for f, t in STUDY.items()}
        jobs = []
        for family in ("gamma", "weibull"):
            jobs.append(
                Job(
                    f"simulate-{family}",
                    "simulate",
                    ["simulate", "--family", family, "--theta", theta[family], "--n", "1000",
                     "--seed", str(sim_seed), "--epsilon", "0.05", "--point", "30"],
                )
            )
        for family in ("gamma", "weibull"):
            data = _contaminate(rng, _draw(rng, family, STUDY[family], 1000), 0.05, 30.0)
            _write_values(path(f"{family}.csv"), data)
            for alpha in ("0", "0.5"):
                jobs.append(
                    Job(
                        f"fit-{family}-a{alpha}",
                        "fit",
                        ["fit", "--family", family, "--input", path(f"{family}.csv"), "--alpha", alpha],
                    )
                )
            jobs.append(
                Job(
                    f"bootstrap-{family}",
                    "bootstrap",
                    ["bootstrap", "--family", family, "--input", path(f"{family}.csv"),
                     "--alpha", "0.5", "-B", "1000", "--seed", str(sim_seed)],
                )
            )
        jobs.append(Job("are-gamma", "are", ["are-table", "--family", "gamma", "--theta", theta["gamma"]]))
        jobs.append(
            Job(
                "influence-gamma",
                "influence",
                ["influence", "--family", "gamma", "--theta", theta["gamma"], "--alpha", "0.5"],
            )
        )
        return jobs

    raise ValueError(f"unknown workload {workload!r}")
