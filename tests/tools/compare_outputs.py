"""Compare the benchmark jobs' outputs of two source trees, float by float.

    python3 tests/tools/compare_outputs.py OLD_TREE NEW_TREE [--sets 32] [--json PATH]

Each tree is a checkout of this repository. For each tree, a child
process puts the tree's src/ and bench/ first on sys.path and runs every
job of input sets 0 to SETS - 1 of the three benchmark workloads in
process: bench/workloads.write_inputs writes the inputs of each set's
recorded generator key (bench/reference.json), and dpdfit.cli.main runs
each job, its stdout, stderr and exit code kept.

The report prints, per workload and job kind, how many jobs have
byte-identical stdout, stderr and exit code, then every moved value of
the others: a float as `old.hex -> new.hex` with its relative move, any
other value (a string, a bool, an exit code, a key or curve alpha only
one side has) as its two reprs. JSON output is read by key, a list of
[alpha, value] pairs (the tune curve) as a map from alpha; CSV output by
the row's first column and the column name. --json writes the same as
one object, the form of the `moved` entries of the BENCH_*.json files.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("report_panel", "tune_loo", "robust_study")


def run_tree(tree, sets, out_path):
    """Child process: every job's (id, kind, code, stdout, stderr) as JSON."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import dpdfit.cli
    import workloads

    with open(os.path.join(tree, "bench", "reference.json"), encoding="utf-8") as fh:
        keys = json.load(fh)["keys"]
    records = []
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            for k in range(sets):
                jobs = workloads.write_inputs(
                    workload, keys[workload][str(k)], os.path.join(work, f"{workload}-{k}")
                )
                for job in jobs:
                    os.environ.update(job.env)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = dpdfit.cli.main(list(job.argv))
                    records.append(
                        [f"{workload}/set{k}/{job.name}", job.kind, code, out.getvalue(), err.getvalue()]
                    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)


def _flatten(node, prefix, out):
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(value, f"{prefix}/{key}", out)
    elif isinstance(node, list) and node and all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], float) for e in node
    ):
        for alpha, value in node:
            _flatten(value, f"{prefix}/{alpha!r}", out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _flatten(value, f"{prefix}/{i}", out)
    else:
        out[prefix] = node


def values(stdout):
    """{path: value} of one job's stdout, JSON or CSV."""
    out = {}
    try:
        _flatten(json.loads(stdout), "", out)
        return out
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(stdout)))
    for row in rows[1:]:
        for name, cell in zip(rows[0][1:], row[1:]):
            try:
                out[f"/{row[0]}/{name}"] = float(cell)
            except ValueError:
                out[f"/{row[0]}/{name}"] = cell
    return out


def compare(old, new):
    """(identical job ids, {path: [old, new]} of moved floats, {path: [old, new]} of other moves)."""
    same, floats, other = [], {}, {}
    for (job, _, code_a, out_a, err_a), (job_b, _, code_b, out_b, err_b) in zip(old, new):
        assert job == job_b, (job, job_b)
        if (code_a, out_a, err_a) == (code_b, out_b, err_b):
            same.append(job)
            continue
        if code_a != code_b:
            other[f"{job}/exit_code"] = [code_a, code_b]
        if err_a != err_b:
            other[f"{job}/stderr"] = [err_a, err_b]
        a, b = values(out_a), values(out_b)
        for path in sorted(a.keys() | b.keys()):
            va, vb = a.get(path), b.get(path)
            if va == vb and type(va) is type(vb):
                continue
            if type(va) is float and type(vb) is float:
                floats[job + path] = [va.hex(), vb.hex()]
            else:
                other[job + path] = [repr(va), repr(vb)]
    return same, floats, other


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_tree")
    p.add_argument("new_tree")
    p.add_argument("--sets", type=int, default=32)
    p.add_argument("--json", dest="json_path")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        run_tree(args.old_tree, args.sets, args.child)
        return 0
    runs = []
    with tempfile.TemporaryDirectory() as work:
        for i, tree in enumerate((args.old_tree, args.new_tree)):
            path = os.path.join(work, f"tree{i}.json")
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), os.path.abspath(tree), "-",
                 "--sets", str(args.sets), "--child", path],
                check=True,
            )
            with open(path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
    old, new = runs
    same, floats, other = compare(old, new)
    tally = {}
    for job, kind, *_ in old:
        group = f"{job.split('/')[0]}/{kind}"
        total, identical = tally.get(group, (0, 0))
        tally[group] = (total + 1, identical + (job in same))
    for group, (total, identical) in sorted(tally.items()):
        print(f"{group}: {identical} of {total} jobs identical")
    for path, (a, b) in floats.items():
        fa, fb = float.fromhex(a), float.fromhex(b)
        rel = abs(fb - fa) / max(abs(fa), abs(fb)) if fa != fb else 0.0
        print(f"{path}: {a} -> {b} ({rel:.2g})")
    for path, (a, b) in other.items():
        print(f"{path}: {a} -> {b}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump({"identical_jobs": {g: t[1] for g, t in sorted(tally.items())},
                       "jobs": {g: t[0] for g, t in sorted(tally.items())},
                       "moved": floats, "other": other}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
