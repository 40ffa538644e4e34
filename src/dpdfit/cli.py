"""Batch command line around the fitting toolkit.

Subcommands: fit, tune, select, are-table, influence, bootstrap,
simulate, report. Single-object results print as JSON, tables as CSV,
both to stdout unless --output names a file. Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import functools
import json
import numbers
import sys

import numpy as np

from .asymptotics import _standard_errors, are, influence_function, sandwich
from .dataio import (
    adjusted_median,
    load_csv,
    load_panel,
    open_sink,
    save_csv,
    write_report_rows,
    write_rows,
)
from .errors import DataError, DomainError, DpdError, FitError
from .estimator import _sample_values, fit
from .families import FAMILIES, ParamVector, density, quantile
from .selection import _criterion, select_model
from .tuning import select_alpha
from .uncertainty import ContaminationScheme, bootstrap_se, sample_family, simulate_contaminated

__all__ = ["main", "run", "emit_plot_data", "parse_args"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser():
    """The argparse tree, built once: a parse keeps no state in it."""
    parser = _Parser(prog="dpdfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def cmd(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", default=None, help="output file (default stdout)")
        p.set_defaults(handler=handler)
        return p

    def add_input(p):
        p.add_argument("--input", required=True, help="input CSV with a header row")
        p.add_argument("--column", default="value", help="value column name (default value)")

    def add_family(p):
        p.add_argument("--family", required=True, choices=tuple(FAMILIES))

    def add_theta(p):
        p.add_argument("--theta", default=None, help="comma-separated parameters (exponential defaults to 1)")

    def add_alpha(p):
        p.add_argument("--alpha", type=float, default=0.0)

    def add_fast(p):
        p.add_argument("--fast", action="store_true", help="coarse grid only, skip refinement")

    p = cmd("fit", "fit one family at a fixed alpha", _cmd_fit)
    add_family(p)
    add_input(p)
    add_alpha(p)
    p.add_argument("--plot-data", default=None, help="also write histogram and density curve CSV here")
    p.add_argument("--bins", type=int, default=30)

    p = cmd("tune", "pick alpha by the leave-one-out CVM distance", _cmd_tune)
    add_family(p)
    add_input(p)
    add_fast(p)
    p.add_argument("--curve-csv", default=None, help="write the alpha vs cvmd curve here")

    p = cmd("select", "rank all four families by their RIC at one alpha", _cmd_select)
    add_input(p)
    p.add_argument("--table-csv", default=None, help="write the family,alpha,ric table here")

    p = cmd("are-table", "asymptotic relative efficiency table for one family", _cmd_are_table)
    add_family(p)
    add_theta(p)
    p.add_argument("--alphas", default=None, help="comma-separated alpha values")

    p = cmd("influence", "influence function curve over a y grid", _cmd_influence)
    add_family(p)
    add_theta(p)
    add_alpha(p)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--y-min", type=float, default=None)
    p.add_argument("--y-max", type=float, default=None)

    p = cmd("bootstrap", "bootstrap standard errors at a fixed alpha", _cmd_bootstrap)
    add_family(p)
    add_input(p)
    add_alpha(p)
    p.add_argument("-B", "--replicates", type=int, default=1000, dest="B")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimates-csv", default=None, help="write replicate,param,value rows here")

    p = cmd("simulate", "draw a seeded, optionally contaminated sample", _cmd_simulate)
    add_family(p)
    add_theta(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--point", type=float, default=None, help="contamination point y")
    p.add_argument("--displaced-family", choices=tuple(FAMILIES), default=None)
    p.add_argument("--displaced-theta", default=None)

    p = cmd("report", "full pipeline per series: select family, tune alpha, adjusted median", _cmd_report)
    add_input(p)
    p.add_argument("--label-column", default=None, help="series id column (default: 'label' when present)")
    add_fast(p)

    return parser


def _parse_theta(family, text):
    if text is None:
        if family.param_count == 1:  # the exponential's ARE is free of its rate
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


def parse_args(argv=None):
    """Parse and check argv. Returns the argparse namespace with family,
    theta, alphas and the displaced law converted to their objects."""
    ns = build_parser().parse_args(argv)
    ns.family = FAMILIES[ns.family] if getattr(ns, "family", None) else None
    if hasattr(ns, "theta"):  # every command with --theta requires --family
        ns.theta = _parse_theta(ns.family, ns.theta)
    if getattr(ns, "alpha", None) is not None and not 0.0 <= ns.alpha <= 1.0:
        raise _UsageError(f"--alpha must lie in [0, 1], got {ns.alpha}")
    if getattr(ns, "alphas", None) is not None:
        try:
            ns.alphas = tuple(float(s) for s in ns.alphas.split(","))
        except ValueError:
            raise _UsageError(f"--alphas must be comma-separated numbers, got {ns.alphas!r}") from None
        for a in ns.alphas:
            if not 0.0 <= a <= 1.0:
                raise _UsageError(f"--alphas entries must lie in [0, 1], got {a}")
    if ns.command == "simulate":
        ns.displaced = None
        if ns.displaced_family or ns.displaced_theta:
            if not (ns.displaced_family and ns.displaced_theta):
                raise _UsageError("--displaced-family and --displaced-theta go together")
            ns.displaced = _parse_theta(FAMILIES[ns.displaced_family], ns.displaced_theta)
    _validate(ns)
    return ns


def _validate(args):
    if getattr(args, "seed", 0) < 0:  # SeedSequence takes nonnegative seeds only
        raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
    if args.command == "bootstrap" and args.B < 2:
        raise _UsageError(f"need at least 2 replicates, got {args.B}")
    if args.command == "simulate":
        if args.n < 1:
            raise _UsageError(f"--n must be at least 1, got {args.n}")
        if not 0.0 <= args.epsilon < 0.5:
            raise _UsageError(f"--epsilon must lie in [0, 0.5), got {args.epsilon}")
        if args.point is not None and args.displaced is not None:
            raise _UsageError("give --point or a displaced law, not both")
        if args.epsilon > 0.0 and args.point is None and args.displaced is None:
            raise _UsageError("--epsilon > 0 needs --point or --displaced-family/--displaced-theta")
        if args.point is not None and args.point <= 0.0:
            raise _UsageError(f"--point must be positive, got {args.point}")
    for flag in ("point", "y_min", "y_max"):
        value = getattr(args, flag, None)
        if value is not None and not np.isfinite(value):
            raise _UsageError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    if args.command == "fit" and args.bins < 1:
        raise _UsageError(f"--bins must be at least 1, got {args.bins}")
    if args.command == "influence" and args.points < 2:
        raise _UsageError(f"--points must be at least 2, got {args.points}")


def _emit(output, write):
    """write(stream) to stdout, or to the named file."""
    with open_sink(sys.stdout if output in (None, "-") else output) as fh:
        write(fh)


def _emit_json(output, obj):
    _emit(output, lambda fh: fh.write(json.dumps(obj, indent=2) + "\n"))


def _named(family, values):
    return {name: float(v) for name, v in zip(family.param_names, values)}


def _se_or_none(fit_result, sw=None):
    """Named asymptotic SEs, from sw when the fit's sandwich has been
    taken, or None where they cannot be had."""
    try:
        return _named(fit_result.family, _standard_errors(fit_result, sw))
    except DpdError:
        return None


def emit_plot_data(fit_result, sample, bins=30):
    """Histogram block plus fitted-density block, as one CSV text.

    The histogram is area-normalized over the data range; the curve has
    512 points spanning [0, 1.1 max]. The density at x = 0 is the
    analytic limit, which can be inf for shape < 1.
    """
    if not (isinstance(bins, numbers.Integral) and bins >= 1):
        raise DomainError(f"need an integer bins >= 1, got {bins!r}")
    values = _sample_values(sample)
    theta = fit_result.theta_hat
    counts, edges = np.histogram(values, bins=bins, density=True)
    lines = ["bin_left,bin_right,density"]
    for i, c in enumerate(counts):
        lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{float(c)!r}")
    lines.append("")
    lines.append("x,f(x)")
    xs = np.linspace(0.0, float(values.max()) * 1.1, 512)
    fs = np.empty_like(xs)
    fs[0] = fit_result.family.at_zero(theta.values)
    fs[1:] = density(theta, xs[1:])
    for x, f in zip(xs, fs):
        lines.append(f"{float(x)!r},{float(f)!r}")
    return "\n".join(lines) + "\n"


def _wet(sample):
    """sample, or a DataError when it has no wet (nonzero) values to fit."""
    if not sample.values:
        raise DataError(f"no wet values to fit ({sample.dry_count} dry)")
    return sample


def _cmd_fit(args):
    sample = _wet(load_csv(args.input, args.column))
    res = fit(args.family, args.alpha, sample)
    out = {
        "command": "fit",
        "family": args.family.tag,
        "alpha": args.alpha,
        "n_wet": len(sample.values),
        "dry_count": sample.dry_count,
        "params": _named(args.family, res.theta_hat.values),
        "se_asymptotic": _se_or_none(res),
        "objective": res.objective,
        "converged": res.converged,
        "evaluations": res.evaluations,
    }
    if args.plot_data:
        _emit(args.plot_data, lambda fh: fh.write(emit_plot_data(res, sample, args.bins)))
    _emit_json(args.output, out)


def _cmd_tune(args):
    sample = _wet(load_csv(args.input, args.column))
    tun = select_alpha(args.family, sample, refine=not args.fast)
    if args.curve_csv:
        _emit(args.curve_csv, tun.curve_to_csv)
    out = {
        "command": "tune",
        "family": args.family.tag,
        "alpha_star": tun.alpha_star,
        "cvmd_star": tun.cvmd_star,
        "params": _named(args.family, tun.fit_star.theta_hat.values),
        "converged": tun.fit_star.converged,
        "n_wet": len(sample.values),
        "dry_count": sample.dry_count,
        "curve": [[a, tun.cvmd_curve[a]] for a in sorted(tun.cvmd_curve)],
    }
    _emit_json(args.output, out)


def _cmd_select(args):
    sample = _wet(load_csv(args.input, args.column))
    rep = select_model(list(FAMILIES.values()), sample)
    if args.table_csv:
        _emit(args.table_csv, rep.table_to_csv)
    out = {
        "command": "select",
        "winner": rep.winner.tag,
        "excluded": list(rep.excluded),
        "families": [
            {
                "family": r.family.tag,
                "alpha": r.fit.alpha,
                "ric": r.ric,
                "params": _named(r.family, r.fit.theta_hat.values),
                "converged": r.fit.converged,
            }
            for r in rep.records
        ],
    }
    _emit_json(args.output, out)


def _cmd_are_table(args):
    table = are(args.family, args.theta) if args.alphas is None else are(args.family, args.theta, args.alphas)
    _emit(args.output, table.to_csv)


def _cmd_influence(args):
    lo = args.y_min if args.y_min is not None else quantile(args.theta, 0.001)
    hi = args.y_max if args.y_max is not None else quantile(args.theta, 0.999)
    if not 0.0 < lo < hi:
        raise _UsageError(f"need 0 < y-min < y-max, got {lo} and {hi}")
    ys = np.linspace(lo, hi, args.points)
    vals = influence_function(args.family, args.theta, args.alpha, ys)
    rows = (
        [f"{y:.12g}", name, f"{v:.12g}"]
        for y, row in zip(ys, np.atleast_2d(vals))
        for name, v in zip(args.family.param_names, row)
    )
    _emit(args.output, lambda fh: write_rows(fh, ["y", "param", "value"], rows))


def _cmd_bootstrap(args):
    sample = _wet(load_csv(args.input, args.column))
    res = bootstrap_se(args.family, args.alpha, sample, B=args.B, seed=args.seed)
    if args.estimates_csv:
        _emit(args.estimates_csv, res.estimates_to_csv)
    out = {
        "command": "bootstrap",
        "family": args.family.tag,
        "alpha": args.alpha,
        "B": res.B,
        "failures": res.failures,
        "params": _named(args.family, res.fit.theta_hat.values),
        "se_bootstrap": _named(args.family, res.se),
        "se_asymptotic": _se_or_none(res.fit),
        "warning": res.warning,
    }
    _emit_json(args.output, out)


def _cmd_simulate(args):
    if args.epsilon > 0.0:
        pod = args.point if args.point is not None else args.displaced
        scheme = ContaminationScheme(args.epsilon, pod, seed=args.seed)
        sample = simulate_contaminated(args.family, args.theta, scheme, args.n)
    else:
        sample = sample_family(args.family, args.theta, args.n, args.seed)
    _emit(args.output, lambda fh: save_csv(sample, fh))


def _series_row(sample, fast):
    """One report row: the family of least RIC at selection.RANK_ALPHA,
    its CVM-tuned alpha, and the adjusted median."""
    winner = select_model(list(FAMILIES.values()), _wet(sample)).winner
    tun = select_alpha(winner, sample, refine=not fast)
    res = tun.fit_star
    # one sandwich for the SEs and the RIC; if it raises, the row is skipped
    sw = sandwich(res.family, res.theta_hat, res.alpha)
    se = _se_or_none(res, sw)
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
        "ric": _criterion(res, sw),
        "median_adjusted": adjusted_median(res, sample.dry_count),
    }


def _cmd_report(args):
    rows, data_only = [], True
    for sample in load_panel(args.input, args.column, args.label_column):
        try:
            rows.append(_series_row(sample, args.fast))
        except DpdError as e:
            data_only = data_only and isinstance(e, DataError)
            print(f"error: series {sample.label!r} skipped: {e}", file=sys.stderr)
    if not rows:
        raise (DataError if data_only else FitError)("every series failed")
    _emit(args.output, lambda fh: write_report_rows(rows, fh))


def _one_line(e):
    return " ".join(str(e).split()) or e.__class__.__name__


def run(args):
    """Dispatch parsed arguments; returns the process exit code."""
    try:
        args.handler(args)
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


@functools.cache
def _keep_heap():
    """Free one mapped 16 MiB block once per process: glibc then lifts its mmap threshold to it
    and its trim threshold to twice it (blocks up to 32 MiB; 16 stays clear of that edge after
    numpy's rounding), so kernel temporaries are not refaulted. Explicit MALLOC_* thresholds win."""
    np.empty(16 << 20, dtype=np.uint8)


def main(argv=None):
    _keep_heap()
    try:
        args = parse_args(argv)
    except _UsageError as e:
        print(f"error: usage: {_one_line(e)}", file=sys.stderr)
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
