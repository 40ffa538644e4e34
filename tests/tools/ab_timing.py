"""Time the benchmark workloads through two source trees in one process.

    python3 tests/tools/ab_timing.py OLD_TREE NEW_TREE [--rounds 20] [--seed 3] [--json PATH]

Each tree is a checkout of this repository. Its src/dpdfit is copied
into a temporary directory as the package dpdfit_old or dpdfit_new (the
package imports itself only relatively), so both trees run side by side
in this process, on one numpy and one warm interpreter. The inputs of
input set seed mod POOL are written once, by NEW_TREE's
bench/workloads.write_inputs from that set's recorded generator key
(bench/reference.json), and both trees read the same files.

After one untimed warm-up pass per tree, each round times every
workload's whole job list once through each tree's cli.main, output
discarded; the old tree goes first in even rounds (counting from 0) and
the new tree in odd ones. Per workload it prints each tree's median and
inclusive quartiles of the pass time in ms, its median minor page
faults per pass (ru_minflt), and in how many rounds the new tree's pass
was the faster. --json writes the same with every round's times and
faults, old and new, in round order.

Both trees share this process, and with it one allocator, one set of
glibc malloc thresholds and one heap: a change to process-wide state
(say, a mallopt call in cli.main) acts on both sides as soon as either
runs, so it cannot be A/B-tested here. Time such a change with paired
bench/run.py runs, which use separate processes.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

WORKLOADS = ("report_panel", "tune_loo", "robust_study")
SIDES = ("old", "new")


def load_cli(tree, side, into):
    """cli module of tree's src/dpdfit, imported as the package dpdfit_<side>."""
    name = f"dpdfit_{side}"
    shutil.copytree(os.path.join(tree, "src", "dpdfit"), os.path.join(into, name))
    return importlib.import_module(f"{name}.cli")


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def one_pass(cli, jobs):
    """Seconds and minor page faults to run every job once; a job that
    fails or raises stops the run."""
    f0, t0 = minor_faults(), time.perf_counter()
    for job in jobs:
        os.environ.update(job.env)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
        if code != 0:
            raise SystemExit(f"{cli.__name__} {job.name}: exit {code}: {err.getvalue().strip()}")
    return time.perf_counter() - t0, minor_faults() - f0


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_tree")
    p.add_argument("new_tree")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--json", dest="json_path")
    args = p.parse_args(argv)
    trees = {"old": args.old_tree, "new": args.new_tree}

    with tempfile.TemporaryDirectory() as work:
        sys.path[:0] = [work, os.path.join(args.new_tree, "bench")]
        import workloads

        with open(os.path.join(args.new_tree, "bench", "reference.json"), encoding="utf-8") as fh:
            keys = json.load(fh)["keys"]
        index = str(workloads.pool_index(args.seed))
        clis = {side: load_cli(trees[side], side, work) for side in SIDES}
        report = {"seed": args.seed, "rounds": args.rounds, "workloads": {}}
        header = ("workload", "old ms: median [q1, q3]", "new ms: median [q1, q3]", "new won",
                  "old faults", "new faults")
        print(f"{header[0]:<14} {header[1]:<28} {header[2]:<28} {header[3]:<8} {header[4]:<11} {header[5]}")
        for workload in WORKLOADS:
            jobs = workloads.write_inputs(
                workload, keys[workload][index], os.path.join(work, "inputs", workload)
            )
            for side in SIDES:
                one_pass(clis[side], jobs)
            times = {side: [] for side in SIDES}
            faults = {side: [] for side in SIDES}
            for r in range(args.rounds):
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    seconds, count = one_pass(clis[side], jobs)
                    times[side].append(seconds * 1e3)
                    faults[side].append(count)
            won = sum(new < old for old, new in zip(times["old"], times["new"]))
            stats = {side: summary(times[side]) for side in SIDES}
            medians = {side: statistics.median(faults[side]) for side in SIDES}
            cells = [f"{s['median']:.1f} [{s['q1']:.1f}, {s['q3']:.1f}]" for s in stats.values()]
            won_cell = f"{won}/{args.rounds}"
            print(f"{workload:<14} {cells[0]:<28} {cells[1]:<28} {won_cell:<8} "
                  f"{medians['old']:<11g} {medians['new']:g}")
            report["workloads"][workload] = {
                "unit": "ms",
                **{
                    side: {**stats[side], "runs": times[side],
                           "minor_faults_median": medians[side], "minor_faults": faults[side]}
                    for side in SIDES
                },
                "rounds_new_won": won,
            }
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
