"""Record reference.json: every job's output summary for every input set.

    python3 bench/record_reference.py [--workers 2] [--workload NAME ...]

Run from the repository root at the commit whose outputs become the
reference. All 96 input sets take about 25 minutes on 2 cores.

For report_panel and tune_loo it also measures how far each discrete
answer is from a tie (the RIC gap between the best and the second
family, the CVM gap between the best and the second grid alpha).
Where a gap is so small that a last-bit change in the program could
flip the answer, no single answer is right and the reference could not
tell a regression from noise, so that input set is redrawn from the
next generator key.
"""

import argparse
import json
import os
import shutil
import sys
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS, run_job  # noqa: E402

RIC_GAP = 1e-6  # relative to max(1, |ric|)
CVM_GAP = 1e-4  # relative to the grid minimum


def _cvm_gap(curve):
    grid = sorted(v for a, v in curve.items() if any(abs(a - k / 20.0) < 1e-12 for k in range(21)))
    return (grid[1] - grid[0]) / grid[0]


def _report_margins(panel_path):
    from dpdfit import FAMILIES, load_panel, select_alpha, select_model

    margins = {}
    for series in load_panel(panel_path, "value", "label"):
        rep = select_model(list(FAMILIES.values()), series, refine=False)
        rics = sorted(r.ric_min for r in rep.records)
        tun = select_alpha(rep.winner, series, refine=False)
        margins[series.label] = {
            "ric_gap": (rics[1] - rics[0]) / max(1.0, abs(rics[0])),
            "cvm_gap": _cvm_gap(tun.cvmd_curve),
        }
    return margins


def _near_tie(margins):
    return [
        job for job, m in margins.items() if m.get("ric_gap", 1.0) < RIC_GAP or m["cvm_gap"] < CVM_GAP
    ]


def record_one(workload, index):
    """(workload, index, key, summaries, margins) for the first key without a near tie."""
    key = index
    while True:
        entry, margins = _record_key(workload, key)
        if not _near_tie(margins):
            return workload, index, key, entry, margins
        print(f"{workload}[{index}] key {key} skipped, near tie: {margins}", file=sys.stderr, flush=True)
        key += workloads.POOL


def _record_key(workload, key):
    import dpdfit.cli

    workdir = tempfile.mkdtemp(prefix=f"ref-{workload}-{key}-", dir=os.path.join(HERE, ".work"))
    try:
        jobs = workloads.write_inputs(workload, key, workdir)
        entry = {}
        margins = {}
        for job in jobs:
            _, code, stdout, stderr = run_job(job, dpdfit.cli)
            if code != 0:
                raise RuntimeError(f"{workload} key {key} {job.name}: exit {code}: {stderr.strip()}")
            summary = checks.summarize(job.kind, stdout)
            bad = [k for k, v in summary.items() if isinstance(v, float) and v != v]
            if bad:
                raise RuntimeError(f"{workload} key {key} {job.name}: NaN in {bad}")
            entry[job.name] = summary
            if job.kind == "tune":
                curve = {a: v for a, v in json.loads(stdout)["curve"]}
                margins[job.name] = {"cvm_gap": _cvm_gap(curve)}
        if workload == "report_panel":
            margins.update(_report_margins(os.path.join(workdir, "panel.csv")))
        return entry, margins
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args()
    names = args.workload or list(WORKLOADS)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    path = os.path.join(HERE, "reference.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = {"pool": workloads.POOL, "keys": {}, "workloads": {}, "margins": {}}
    tasks = [(w, i) for w in names for i in range(workloads.POOL)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=args.workers, mp_context=ctx) as ex:
        futures = [ex.submit(record_one, w, i) for w, i in tasks]
        for fut in futures:
            workload, index, key, entry, margins = fut.result()
            doc["keys"].setdefault(workload, {})[str(index)] = key
            doc["workloads"].setdefault(workload, {})[str(index)] = entry
            doc["margins"].setdefault(workload, {})[str(index)] = margins
            print(f"{workload}[{index}] key {key} recorded", file=sys.stderr, flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
