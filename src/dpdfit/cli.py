"""Batch command line around the fitting toolkit.

Subcommands: fit, tune, select, are-table, influence, bootstrap,
simulate, report. Single-object results print as JSON, tables as CSV,
both to stdout unless --output names a file. Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import are, asymptotic_se, influence_function
from .dataio import (
    Sample,
    adjusted_median,
    load_csv,
    load_panel,
    save_csv,
    write_report_rows,
)
from .errors import DataError, DomainError, DpdError, FitError
from .estimator import fit
from .families import EXPONENTIAL, FAMILIES, GAMMA, WEIBULL, ParamVector, density, quantile
from .selection import _ric_from_fit, select_model
from .tuning import select_alpha
from .uncertainty import ContaminationScheme, bootstrap_se, sample_family, simulate_contaminated

__all__ = ["CliConfig", "main", "run", "emit_plot_data", "parse_args"]

_COMMANDS = ("fit", "tune", "select", "are-table", "influence", "bootstrap", "simulate", "report")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class CliConfig:
    command: str
    family: object = None
    alpha: float = None
    input: str = None
    column: str = "value"
    seed: int = None
    output: str = None
    fast: bool = False
    theta: object = None
    B: int = 1000
    n: int = None
    bins: int = 30
    points: int = 512
    epsilon: float = 0.0
    point: float = None
    displaced: object = None
    y_min: float = None
    y_max: float = None
    alphas: tuple = None
    curve_csv: str = None
    table_csv: str = None
    estimates_csv: str = None
    plot_data: str = None
    label_column: str = None


def build_parser():
    parser = _Parser(prog="dpdfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", default=None, help="output file (default stdout)")
        return p

    def add_input(p, required=True):
        p.add_argument("--input", required=required, help="input CSV with a header row")
        p.add_argument("--column", default="value", help="value column name (default value)")

    def add_family(p, required=True):
        p.add_argument("--family", required=required, choices=tuple(FAMILIES))

    p = cmd("fit", "fit one family at a fixed alpha")
    add_family(p)
    add_input(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--plot-data", default=None, help="also write histogram and density curve CSV here")
    p.add_argument("--bins", type=int, default=30)

    p = cmd("tune", "pick alpha by the leave-one-out CVM distance")
    add_family(p)
    add_input(p)
    p.add_argument("--fast", action="store_true", help="coarse grid only, skip refinement")
    p.add_argument("--curve-csv", default=None, help="write the alpha vs cvmd curve here")

    p = cmd("select", "rank all four families by minimized RIC")
    add_input(p)
    p.add_argument("--fast", action="store_true", help="coarse grid only, skip refinement")
    p.add_argument("--table-csv", default=None, help="write the family,alpha,ric table here")

    p = cmd("are-table", "asymptotic relative efficiency table for one family")
    add_family(p)
    p.add_argument("--theta", default=None, help="comma-separated parameters (exponential defaults to 1)")
    p.add_argument("--alphas", default=None, help="comma-separated alpha values")

    p = cmd("influence", "influence function curve over a y grid")
    add_family(p)
    p.add_argument("--theta", default=None, help="comma-separated parameters (exponential defaults to 1)")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--y-min", type=float, default=None)
    p.add_argument("--y-max", type=float, default=None)

    p = cmd("bootstrap", "bootstrap standard errors at a fixed alpha")
    add_family(p)
    add_input(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("-B", "--replicates", type=int, default=1000, dest="B")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimates-csv", default=None, help="write replicate,param,value rows here")

    p = cmd("simulate", "draw a seeded, optionally contaminated sample")
    add_family(p)
    p.add_argument("--theta", default=None, help="comma-separated parameters (exponential defaults to 1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--point", type=float, default=None, help="contamination point y")
    p.add_argument("--displaced-family", choices=tuple(FAMILIES), default=None)
    p.add_argument("--displaced-theta", default=None)

    p = cmd("report", "full pipeline per series: select family, tune alpha, adjusted median")
    add_input(p)
    p.add_argument("--label-column", default=None, help="series id column (default: 'label' when present)")
    p.add_argument("--fast", action="store_true", help="coarse grid only, skip refinement")

    return parser


def _parse_theta(family, text):
    if text is None:
        if family is EXPONENTIAL:
            return ParamVector(family, (1.0,))
        raise _UsageError(f"--theta is required for {family.tag}")
    try:
        vals = tuple(float(s) for s in text.split(","))
    except ValueError:
        raise _UsageError(f"--theta must be comma-separated numbers, got {text!r}") from None
    try:
        return ParamVector(family, vals)
    except DomainError as e:
        raise _UsageError(str(e)) from None


def _check_alpha(alpha):
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise _UsageError(f"--alpha must lie in [0, 1], got {alpha}")
    return alpha


def parse_args(argv=None):
    ns = build_parser().parse_args(argv)
    family = FAMILIES[ns.family] if getattr(ns, "family", None) else None
    theta = None
    if hasattr(ns, "theta"):
        if family is None:
            raise _UsageError("--theta needs --family")
        theta = _parse_theta(family, ns.theta)
    alphas = None
    if getattr(ns, "alphas", None):
        try:
            alphas = tuple(float(s) for s in ns.alphas.split(","))
        except ValueError:
            raise _UsageError(f"--alphas must be comma-separated numbers, got {ns.alphas!r}") from None
        for a in alphas:
            if not 0.0 <= a <= 1.0:
                raise _UsageError(f"--alphas entries must lie in [0, 1], got {a}")
    displaced = None
    if getattr(ns, "displaced_family", None) or getattr(ns, "displaced_theta", None):
        if not (ns.displaced_family and ns.displaced_theta):
            raise _UsageError("--displaced-family and --displaced-theta go together")
        dfam = FAMILIES[ns.displaced_family]
        displaced = _parse_theta(dfam, ns.displaced_theta)
    cfg = CliConfig(
        command=ns.command,
        family=family,
        alpha=_check_alpha(getattr(ns, "alpha", None)),
        input=getattr(ns, "input", None),
        column=getattr(ns, "column", "value"),
        seed=getattr(ns, "seed", None),
        output=ns.output,
        fast=bool(getattr(ns, "fast", False)),
        theta=theta,
        B=getattr(ns, "B", 1000),
        n=getattr(ns, "n", None),
        bins=getattr(ns, "bins", 30),
        points=getattr(ns, "points", 512),
        epsilon=getattr(ns, "epsilon", 0.0),
        point=getattr(ns, "point", None),
        displaced=displaced,
        y_min=getattr(ns, "y_min", None),
        y_max=getattr(ns, "y_max", None),
        alphas=alphas,
        curve_csv=getattr(ns, "curve_csv", None),
        table_csv=getattr(ns, "table_csv", None),
        estimates_csv=getattr(ns, "estimates_csv", None),
        plot_data=getattr(ns, "plot_data", None),
        label_column=getattr(ns, "label_column", None),
    )
    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.command == "bootstrap" and cfg.B < 2:
        raise _UsageError(f"need at least 2 replicates, got {cfg.B}")
    if cfg.command == "simulate":
        if cfg.n < 1:
            raise _UsageError(f"--n must be at least 1, got {cfg.n}")
        if not 0.0 <= cfg.epsilon < 0.5:
            raise _UsageError(f"--epsilon must lie in [0, 0.5), got {cfg.epsilon}")
        if cfg.point is not None and cfg.displaced is not None:
            raise _UsageError("give --point or a displaced law, not both")
        if cfg.epsilon > 0.0 and cfg.point is None and cfg.displaced is None:
            raise _UsageError("--epsilon > 0 needs --point or --displaced-family/--displaced-theta")
        if cfg.point is not None and cfg.point <= 0.0:
            raise _UsageError(f"--point must be positive, got {cfg.point}")
    if cfg.command == "fit" and cfg.bins < 1:
        raise _UsageError(f"--bins must be at least 1, got {cfg.bins}")
    if cfg.command == "influence" and cfg.points < 2:
        raise _UsageError(f"--points must be at least 2, got {cfg.points}")


def _emit_text(output, text):
    if not text.endswith("\n"):
        text += "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(output, obj):
    _emit_text(output, json.dumps(obj, indent=2))


def _emit_csv(output, write_fn):
    if output in (None, "-"):
        buf = io.StringIO()
        write_fn(buf)
        sys.stdout.write(buf.getvalue())
    else:
        write_fn(output)


def _named(family, values):
    return {name: float(v) for name, v in zip(family.param_names, values)}


def _se_or_none(fit_result):
    try:
        return _named(fit_result.family, asymptotic_se(fit_result))
    except DpdError:
        return None


def emit_plot_data(fit_result, sample, bins=30):
    """Histogram block plus fitted-density block, as one CSV text.

    The histogram is area-normalized over the data range; the curve has
    512 points spanning [0, 1.1 max]. The density at x = 0 is the
    analytic limit, which can be inf for shape < 1.
    """
    if bins < 1:
        raise DomainError(f"need bins >= 1, got {bins}")
    values = np.asarray(getattr(sample, "values", sample), dtype=float)
    if values.size == 0:
        raise DomainError("sample is empty")
    theta = fit_result.theta_hat
    counts, edges = np.histogram(values, bins=int(bins), density=True)
    lines = ["bin_left,bin_right,density"]
    for i, c in enumerate(counts):
        lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{float(c)!r}")
    lines.append("")
    lines.append("x,f(x)")
    xs = np.linspace(0.0, float(values.max()) * 1.1, 512)
    fs = np.empty_like(xs)
    fs[0] = _density_at_zero(fit_result.family, theta)
    fs[1:] = density(theta, xs[1:])
    for x, f in zip(xs, fs):
        lines.append(f"{float(x)!r},{float(f)!r}")
    return "\n".join(lines) + "\n"


def _density_at_zero(family, theta):
    if family is EXPONENTIAL:
        return theta.values[0]
    if family in (GAMMA, WEIBULL):
        a = theta.values[0]
        if a == 1.0:
            return theta.values[1]
        return 0.0 if a > 1.0 else float("inf")
    return 0.0


def _cmd_fit(cfg):
    sample = load_csv(cfg.input, cfg.column)
    res = fit(cfg.family, cfg.alpha, sample)
    out = {
        "command": "fit",
        "family": cfg.family.tag,
        "alpha": cfg.alpha,
        "n_wet": len(sample.values),
        "dry_count": sample.dry_count,
        "params": _named(cfg.family, res.theta_hat.values),
        "se_asymptotic": _se_or_none(res),
        "objective": res.objective,
        "converged": res.converged,
        "evaluations": res.evaluations,
    }
    if cfg.plot_data:
        _emit_csv(cfg.plot_data, lambda sink: _emit_plot_text(sink, res, sample, cfg.bins))
    _emit_json(cfg.output, out)


def _emit_plot_text(sink, res, sample, bins):
    text = emit_plot_data(res, sample, bins)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_tune(cfg):
    sample = load_csv(cfg.input, cfg.column)
    tun = select_alpha(cfg.family, sample, refine=not cfg.fast)
    if cfg.curve_csv:
        _emit_csv(cfg.curve_csv, tun.curve_to_csv)
    out = {
        "command": "tune",
        "family": cfg.family.tag,
        "alpha_star": tun.alpha_star,
        "cvmd_star": tun.cvmd_star,
        "params": _named(cfg.family, tun.fit_star.theta_hat.values),
        "converged": tun.fit_star.converged,
        "n_wet": len(sample.values),
        "dry_count": sample.dry_count,
        "curve": [[a, tun.cvmd_curve[a]] for a in sorted(tun.cvmd_curve)],
    }
    _emit_json(cfg.output, out)


def _cmd_select(cfg):
    sample = load_csv(cfg.input, cfg.column)
    rep = select_model(list(FAMILIES.values()), sample, refine=not cfg.fast)
    if cfg.table_csv:
        _emit_csv(cfg.table_csv, rep.table_to_csv)
    out = {
        "command": "select",
        "winner": rep.winner.tag,
        "families": [
            {
                "family": r.family.tag,
                "alpha": r.alpha_star_ric,
                "ric": r.ric_min,
                "params": _named(r.family, r.fit.theta_hat.values),
                "converged": r.fit.converged,
            }
            for r in rep.records
        ],
    }
    _emit_json(cfg.output, out)


def _cmd_are_table(cfg):
    table = are(cfg.family, cfg.theta) if cfg.alphas is None else are(cfg.family, cfg.theta, cfg.alphas)
    _emit_csv(cfg.output, table.to_csv)


def _cmd_influence(cfg):
    lo = cfg.y_min if cfg.y_min is not None else quantile(cfg.theta, 0.001)
    hi = cfg.y_max if cfg.y_max is not None else quantile(cfg.theta, 0.999)
    if not 0.0 < lo < hi:
        raise _UsageError(f"need 0 < y-min < y-max, got {lo} and {hi}")
    ys = np.linspace(lo, hi, cfg.points)
    vals = influence_function(cfg.family, cfg.theta, cfg.alpha, ys)

    def _write(sink):
        fh = sink if hasattr(sink, "write") else open(sink, "w", newline="", encoding="utf-8")
        try:
            writer = csv.writer(fh)
            writer.writerow(["y", "param", "value"])
            for y, row in zip(ys, np.atleast_2d(vals)):
                for name, v in zip(cfg.family.param_names, row):
                    writer.writerow([f"{y:.12g}", name, f"{v:.12g}"])
        finally:
            if fh is not sink:
                fh.close()

    _emit_csv(cfg.output, _write)


def _cmd_bootstrap(cfg):
    sample = load_csv(cfg.input, cfg.column)
    res = bootstrap_se(cfg.family, cfg.alpha, sample, B=cfg.B, seed=cfg.seed or 0)
    if cfg.estimates_csv:
        _emit_csv(cfg.estimates_csv, res.estimates_to_csv)
    out = {
        "command": "bootstrap",
        "family": cfg.family.tag,
        "alpha": cfg.alpha,
        "B": res.B,
        "failures": res.failures,
        "params": _named(cfg.family, res.fit.theta_hat.values),
        "se_bootstrap": _named(cfg.family, res.se),
        "se_asymptotic": _se_or_none(res.fit),
        "warning": res.warning,
    }
    _emit_json(cfg.output, out)


def _cmd_simulate(cfg):
    if cfg.epsilon > 0.0:
        pod = cfg.point if cfg.point is not None else cfg.displaced
        scheme = ContaminationScheme(cfg.epsilon, pod, seed=cfg.seed)
        sample = simulate_contaminated(cfg.family, cfg.theta, scheme, cfg.n)
    else:
        sample = sample_family(cfg.family, cfg.theta, cfg.n, cfg.seed)
    _emit_csv(cfg.output, lambda sink: save_csv(sample, sink))


def _series_row(sample, fast):
    """One report row: RIC-selected family, CVM-tuned alpha, adjusted median."""
    rep = select_model(list(FAMILIES.values()), sample, refine=not fast)
    winner = rep.winner
    tun = select_alpha(winner, sample, refine=not fast)
    res = tun.fit_star
    se = _se_or_none(res)
    names = winner.param_names
    params = res.theta_hat.values
    return {
        "label": sample.label,
        "family": winner.tag,
        "alpha_star": tun.alpha_star,
        "param1": params[0],
        "param2": params[1] if len(params) > 1 else None,
        "se1": None if se is None else se[names[0]],
        "se2": None if se is None or len(names) < 2 else se[names[1]],
        "cvmd": tun.cvmd_star,
        "ric": _ric_from_fit(res),
        "median_adjusted": adjusted_median(res, sample.dry_count, len(sample.values)),
    }


def _load_series(cfg):
    if cfg.label_column is not None:
        return load_panel(cfg.input, cfg.column, cfg.label_column)
    try:
        with open(cfg.input, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), [])
    except OSError:
        raise DataError(f"no such file: {cfg.input}") from None
    if "label" in header:
        return load_panel(cfg.input, cfg.column, "label")
    return [load_csv(cfg.input, cfg.column)]


def _thread_count():
    raw = os.environ.get("RF_THREADS", "1") or "1"
    try:
        return max(1, int(raw))
    except ValueError:
        raise _UsageError(f"RF_THREADS must be an integer, got {raw!r}") from None


def _cmd_report(cfg):
    series = _load_series(cfg)
    workers = _thread_count()

    def one(sample):
        try:
            return sample.label, _series_row(sample, cfg.fast), None
        except (DpdError, DataError) as e:
            return sample.label, None, str(e)

    if workers > 1 and len(series) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(one, series))
    else:
        results = [one(s) for s in series]

    rows = []
    for label, row, err in results:
        if err is not None:
            print(f"error: series {label!r} skipped: {err}", file=sys.stderr)
        else:
            rows.append(row)
    if not rows:
        raise FitError("every series failed")
    _emit_csv(cfg.output, lambda sink: write_report_rows(rows, sink))


_HANDLERS = {
    "fit": _cmd_fit,
    "tune": _cmd_tune,
    "select": _cmd_select,
    "are-table": _cmd_are_table,
    "influence": _cmd_influence,
    "bootstrap": _cmd_bootstrap,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def _one_line(e):
    return " ".join(str(e).split()) or e.__class__.__name__


def run(config):
    """Dispatch a parsed config; returns the process exit code."""
    try:
        _HANDLERS[config.command](config)
    except _UsageError as e:
        print(f"error: usage: {_one_line(e)}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"error: data: {_one_line(e)}", file=sys.stderr)
        return 2
    except DpdError as e:
        print(f"error: numeric: {_one_line(e)}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"error: internal: {_one_line(e)}", file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    try:
        cfg = parse_args(argv)
    except _UsageError as e:
        print(f"error: usage: {_one_line(e)}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
