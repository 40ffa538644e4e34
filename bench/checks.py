"""Reduce each job's output to a small summary and check it against the
reference recorded from dpdfit at the commit that defined the benchmark.

Tolerances are wide enough for last-bit changes the ROADMAP plans
(closed-form weighted moments in place of quadrature, gammaincinv in
place of bisection, exact leave-one-out refits) and narrow enough that
a wrong family, a wrong alpha_star or a NaN fails. Strings, grid
alphas and counts compare exactly.
"""

import csv
import io
import json
import math

# (rtol, atol) per summary field; fields not listed compare exactly.
TOLERANCE = {
    "report": {
        "alpha_star": (0.0, 1e-9),  # --fast: a coarse-grid value
        "param1": (1e-5, 0.0),
        "param2": (1e-5, 0.0),
        "se1": (1e-4, 0.0),
        "se2": (1e-4, 0.0),
        "cvmd": (1e-3, 0.0),
        "ric": (1e-5, 1e-9),
        "median_adjusted": (1e-5, 0.0),
    },
    "tune": {
        # With refinement a flat CVM valley lets alpha_star move by a
        # golden-section step or two; a wrong minimum lies a grid cell away.
        "alpha_star": (0.0, 0.01),
        "cvmd_star": (1e-3, 0.0),
        "grid_min": (1e-3, 0.0),
        "param.": (5e-3, 0.0),
    },
    "simulate": {
        "mean": (1e-6, 0.0),
        "min": (1e-4, 0.0),
        "q.": (1e-6, 0.0),
        "max": (1e-6, 0.0),
    },
    "fit": {"param.": (1e-5, 0.0), "se.": (1e-4, 0.0), "objective": (1e-6, 1e-12)},
    "bootstrap": {"param.": (1e-5, 0.0), "se_boot.": (1e-3, 0.0), "se_asym.": (1e-4, 0.0)},
    "are": {"are.": (1e-5, 2e-6)},
    "influence": {"if.": (1e-5, 1e-9), "abs_sum.": (1e-5, 0.0)},
}

_COARSE = tuple(k / 20.0 for k in range(21))
_SIM_QUANTILES = (0.01, 0.1, 0.5, 0.9, 0.99)


def _num(v):
    return None if v is None or v == "" else float(v)


def summarize(kind, stdout):
    """Flat {field: value} summary of one job's stdout."""
    if kind == "report":
        out = {}
        for row in csv.DictReader(io.StringIO(stdout)):
            label = row["label"]
            out[f"{label}/family"] = row["family"]
            for key in ("alpha_star", "param1", "param2", "se1", "se2", "cvmd", "ric", "median_adjusted"):
                out[f"{label}/{key}"] = _num(row[key])
        return out
    if kind == "tune":
        doc = json.loads(stdout)
        grid = {a: v for a, v in doc["curve"] if any(abs(a - g) < 1e-12 for g in _COARSE)}
        grid_alpha = min(grid, key=lambda a: (grid[a], a))
        out = {
            "family": doc["family"],
            "alpha_star": doc["alpha_star"],
            "cvmd_star": doc["cvmd_star"],
            "grid_alpha": round(grid_alpha, 6),
            "grid_min": grid[grid_alpha],
            "curve_min_is_star": min(v for _, v in doc["curve"]) == doc["cvmd_star"],
            "converged": doc["converged"],
        }
        out.update({f"param.{k}": v for k, v in doc["params"].items()})
        return out
    if kind == "simulate":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        xs = sorted(float(r["value"]) for r in rows)
        n = len(xs)
        out = {
            "n": n,
            "at_point": sum(1 for x in xs if x == 30.0),
            "mean": sum(xs) / n,
            "min": xs[0],
            "max": xs[-1],
        }
        out.update({f"q.{q}": xs[int(q * (n - 1))] for q in _SIM_QUANTILES})
        return out
    if kind == "fit":
        doc = json.loads(stdout)
        out = {"family": doc["family"], "converged": doc["converged"], "objective": doc["objective"]}
        out.update({f"param.{k}": v for k, v in doc["params"].items()})
        out.update({f"se.{k}": v for k, v in (doc["se_asymptotic"] or {}).items()})
        return out
    if kind == "bootstrap":
        doc = json.loads(stdout)
        out = {"family": doc["family"], "B": doc["B"], "failures_ok": doc["failures"] <= 0.05 * doc["B"]}
        out.update({f"param.{k}": v for k, v in doc["params"].items()})
        out.update({f"se_boot.{k}": v for k, v in doc["se_bootstrap"].items()})
        out.update({f"se_asym.{k}": v for k, v in (doc["se_asymptotic"] or {}).items()})
        return out
    if kind == "are":
        return {f"are.{r['alpha']}.{r['param']}": float(r["are"]) for r in csv.DictReader(io.StringIO(stdout))}
    if kind == "influence":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        out = {"rows": len(rows)}
        params = sorted({r["param"] for r in rows})
        for p in params:
            vals = [float(r["value"]) for r in rows if r["param"] == p]
            out[f"abs_sum.{p}"] = sum(abs(v) for v in vals)
            for i in range(0, len(vals), 64):
                out[f"if.{p}.{i}"] = vals[i]
        return out
    raise ValueError(f"unknown job kind {kind!r}")


def _tolerance(kind, field):
    table = TOLERANCE.get(kind, {})
    key = field.split("/", 1)[-1]
    if key in table:
        return table[key]
    for prefix, tol in table.items():
        if prefix.endswith(".") and key.startswith(prefix):
            return tol
    return None


def compare(kind, expected, actual):
    """List of mismatch descriptions; empty when the output matches."""
    problems = []
    for field in sorted(set(expected) | set(actual)):
        if field not in actual:
            problems.append(f"{field}: missing")
            continue
        if field not in expected:
            problems.append(f"{field}: unexpected")
            continue
        want, got = expected[field], actual[field]
        tol = _tolerance(kind, field)
        if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            if not math.isfinite(got):
                problems.append(f"{field}: {got!r} is not finite")
                continue
            rtol, atol = tol if tol is not None else (0.0, 0.0)
            if abs(got - want) > atol + rtol * abs(want):
                problems.append(f"{field}: {got!r} vs reference {want!r}")
        elif want != got:
            problems.append(f"{field}: {got!r} vs reference {want!r}")
    return problems
