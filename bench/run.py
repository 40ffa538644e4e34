"""dpdfit benchmark: seeded CLI workloads, checked and timed in-process.

    python3 bench/run.py --workload report_panel --seed 3 --seconds 30 --trace 0

Run from the repository root. One closed-loop client calls
dpdfit.cli.main(argv) in this process, one job after another, so
import cost is paid once, in set-up. The workload's fixed job list is
repeated while the next pass still fits in --seconds; every job's
output is checked against reference.json after every pass.

Times are corrected for the shared host's CPU speed, sampled while
they run (see SpeedProbe).

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced
passes for the first half of the time and traced passes for the
second, and prints the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import io
import json
import os
import math
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 5

WORKLOADS = ("report_panel", "tune_loo", "robust_study")

# Per-layer metrics in print order. Counts and times are per traced pass.
PER_LAYER = (
    "asymptotics.sandwich.calls",
    "asymptotics.sandwich.total_s",
    "asymptotics.sandwich.self_s",
    "numerics.integrate_halfline.calls",
    "numerics.integrate_halfline.total_s",
    "asymptotics.asymptotic_se.calls",
    "asymptotics.asymptotic_se.total_s",
    "asymptotics.are.calls",
    "asymptotics.are.total_s",
    "asymptotics.influence_function.calls",
    "asymptotics.influence_function.total_s",
    "estimator.fit_full.calls",
    "estimator.fit_full.total_s",
    "estimator.fit_full.self_s",
    "estimator.fit_full.evals",
    "estimator.fit_fast.calls",
    "estimator.fit_fast.total_s",
    "estimator.fit_fast.evals",
    "estimator.fit_warm.calls",
    "estimator.fit_warm.total_s",
    "estimator.fit_warm.self_s",
    "estimator.fit_warm.evals",
    "estimator.fit.nonconverged",
    "estimator.fit.errors",
    "tuning.cvm_distance.calls",
    "tuning.cvm_distance.total_s",
    "tuning.cvm_distance.self_s",
    "tuning.select_alpha.calls",
    "tuning.select_alpha.total_s",
    "tuning.select_alpha.self_s",
    "tuning.select_alpha.wait_s",
    "numerics.minimize.calls",
    "numerics.minimize.total_s",
    "numerics.find_root_bracketed.calls",
    "families.quantile.calls",
    "families.quantile.total_s",
    "families.quantile.self_s",
    "families.cdf.calls",
    "numerics.invert_cdf.calls",
    "numerics.invert_cdf.total_s",
    "uncertainty.sample_family.calls",
    "uncertainty.sample_family.total_s",
    "uncertainty.bootstrap_se.calls",
    "uncertainty.bootstrap_se.total_s",
    "uncertainty.bootstrap_se.self_s",
    "uncertainty.bootstrap_se.failures",
    "selection.select_model.calls",
    "selection.select_model.total_s",
    "selection.select_model.self_s",
    "selection.select_model.wait_s",
    "selection.ric.calls",
    "selection.ric.total_s",
    "cli.main.calls",
    "cli.main.self_s",
    "dataio.load.calls",
    "dataio.load.total_s",
    "wall_raw_s",
    "trace.overhead_s",
    "process.cpu_s",
    "src.lines",
)


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _kernel_seconds():
    """Thread CPU time of a fixed, dpdfit-free interpreter loop."""
    t0 = time.thread_time()
    s = 0.0
    for i in range(20000):
        s += math.sqrt(i)
    return time.thread_time() - t0


# Roughly _kernel_seconds() on the 2-vCPU host the benchmark was defined
# on, so that speed factors there sit near 1.
KERNEL_REF_S = 0.0018


def _thread_cpus():
    """{thread id: (CPU ticks used, CPU last run on)} for this process; {} if /proc is unreadable."""
    out = {}
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            out[tid] = (int(fields[11]) + int(fields[12]), int(fields[36]))
    except (OSError, ValueError, IndexError):
        return {}
    return out


class SpeedProbe:
    """Samples the host's CPU speed while the timed work runs.

    Other tenants of a shared host slow this one's CPUs by up to 1.7x,
    in stretches from seconds to minutes, so one run's wall time says
    as much about the neighbours as about dpdfit. A daemon thread times
    _kernel_seconds() every PERIOD seconds; factor() is KERNEL_REF_S
    over the mean sample, and a wall time times factor() is that time
    at the reference speed. The kernel never calls dpdfit, so a change
    to the program cannot move it. Before each sample the probe thread
    moves itself onto the CPU of the thread that used the most CPU since
    the last sample, because the CPUs of one host are not slowed alike.
    Each sample holds the GIL for about 1% of the period.
    """

    PERIOD = 0.2

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        me = str(threading.get_native_id())
        before = _thread_cpus()
        while not self._stop.wait(self.PERIOD):
            now = _thread_cpus()
            used = {t: ticks - before.get(t, (0, 0))[0] for t, (ticks, _) in now.items() if t != me}
            if used:
                busiest = max(used, key=used.get)
                try:
                    os.sched_setaffinity(0, {now[busiest][1]})  # pid 0: this probe thread only
                except OSError:  # not permitted here: sample wherever the scheduler runs us
                    pass
            before = now
            self.samples.append(_kernel_seconds())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:  # work shorter than one period
            self.samples.append(_kernel_seconds())

    def factor(self):
        return KERNEL_REF_S / statistics.mean(self.samples)


def measure_setup(workload, key, workdir):
    """Median speed-corrected wall time of SETUP_REPEATS fresh processes doing the run's set-up."""
    times = []
    with SpeedProbe() as probe:
        for k in range(SETUP_REPEATS):
            target = os.path.join(workdir, f"setup{k}")
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(key), target],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=120,
            )
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace').strip()}")
            shutil.rmtree(target, ignore_errors=True)
    return statistics.median(times) * probe.factor()


def run_job(job, cli):
    """Call the CLI once; returns (seconds, exit code, stdout, stderr)."""
    saved = {k: os.environ.get(k) for k in job.env}
    os.environ.update(job.env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(job.argv))
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                code = -1
                print(f"{type(exc).__name__}: {exc}", file=err)
            elapsed = time.perf_counter() - t0
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return elapsed, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes over a job list, checking every output."""

    def __init__(self, cli, checks, jobs, expected):
        self.cli = cli
        self.checks = checks
        self.jobs = jobs
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outputs = {}

    def one_pass(self, tracer=None):
        """Run every job once; returns the summed wall time of the jobs."""
        total = 0.0
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.name
            elapsed, code, stdout, stderr = run_job(job, self.cli)
            total += elapsed
            self.attempted += 1
            problems = self._check(job, code, stdout, stderr)
            if problems:
                self.failed += 1
                self.problems.append((job.name, problems))
        return total

    def _check(self, job, code, stdout, stderr):
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        try:
            summary = self.checks.summarize(job.kind, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc}"]
        # Every pass, traced or not, must print exactly what the first did.
        first = self.outputs.setdefault(job.name, stdout)
        if stdout != first:
            return ["output differs from this run's first pass"]
        return self.checks.compare(job.kind, self.expected[job.name], summary)


class Pass:
    """One pass over the job list: its wall time and the host speed factor."""

    def __init__(self, raw_s, factor):
        self.raw_s = raw_s
        self.factor = factor
        self.seconds = raw_s * factor


def run_passes(runner, budget, tracer=None, on_pass=None):
    """Passes until the next one would end past `budget` seconds (at least one)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        with SpeedProbe() as probe:
            raw_s = runner.one_pass(tracer)
        passes.append(Pass(raw_s, probe.factor()))
        if on_pass is not None:
            on_pass()
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(p.raw_s for p in passes) > budget:
            label = "traced" if tracer is not None else "untraced"
            shown = [(round(p.raw_s, 3), round(p.factor, 3)) for p in passes]
            print(f"{label} passes (wall s, speed factor): {shown}", file=sys.stderr)
            return passes


def job_list_seconds(passes):
    """Speed-corrected time of the fixed job list: the median over passes."""
    return statistics.median(p.seconds for p in passes)


def src_lines():
    pkg = os.path.join(SRC, "dpdfit")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


# Per-layer metrics that come from the run, not from the tracer's spans and counts.
RUN_LEVEL = ("wall_raw_s", "trace.overhead_s", "process.cpu_s", "src.lines")


def per_layer_metrics(stats, counts):
    """Tracer spans and counts of one pass as PER_LAYER values (0 where nothing ran)."""
    out = {}
    for key in PER_LAYER:
        if key in RUN_LEVEL:
            continue
        base, _, field = key.rpartition(".")
        if base in stats and field in stats[base]:
            out[key] = stats[base][field]
        else:
            out[key] = counts.get(key, 0)
    return out


def traced_passes(runner, budget, trace_path=None):
    """Traced passes; returns (passes, median per-pass layer metrics)."""
    from tracer import Tracer, leftover_wrappers

    tracer = Tracer()
    layers = []
    cpu = []
    cpu0 = time.process_time()

    def collect():
        nonlocal cpu0
        stats, counts = tracer.aggregate()
        layers.append(per_layer_metrics(stats, counts))
        cpu.append(time.process_time() - cpu0)
        if trace_path is not None and len(layers) == 1:
            tracer.dump(trace_path)
        tracer.reset()
        cpu0 = time.process_time()

    with tracer:
        passes = run_passes(runner, budget, tracer, on_pass=collect)
    leftover = leftover_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers behind: {leftover}")
    merged = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    merged["process.cpu_s"] = statistics.median(cpu)
    return passes, merged


def measure(runner, seconds, trace, trace_path=None):
    """End-to-end metrics (trace=0, without setup_s) or per-layer metrics (trace=1)."""
    if trace:
        untraced = run_passes(runner, seconds / 2)
        traced, layers = traced_passes(runner, seconds / 2, trace_path)
        layers["trace.overhead_s"] = job_list_seconds(traced) - job_list_seconds(untraced)
        layers["wall_raw_s"] = statistics.median(p.raw_s for p in untraced)
        layers["src.lines"] = src_lines()
        return {k: {"value": layers[k], "unit": UNITS[k]} for k in PER_LAYER}
    passes = run_passes(runner, seconds)
    return {
        "wall_s": {"value": job_list_seconds(passes), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "ok_frac": {"value": 1.0 - runner.failed / runner.attempted, "unit": "frac"},
    }


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "dpdfit", "__init__.py")):
        return _fail(f"no dpdfit package under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, SRC)

    import checks
    import dpdfit.cli
    import workloads

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    index = str(workloads.pool_index(args.seed))
    if index not in reference["workloads"][args.workload]:
        return _fail(f"reference.json has no entry for seed {args.seed}")
    expected = reference["workloads"][args.workload][index]
    key = reference["keys"][args.workload][index]

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs = workloads.write_inputs(args.workload, key, os.path.join(workdir, "inputs"))
        runner = Runner(dpdfit.cli, checks, jobs, expected)
        if args.trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            trace_path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")
            metrics = measure(runner, args.seconds, 1, trace_path)
        else:
            setup_s = measure_setup(args.workload, key, workdir)
            metrics = measure(runner, args.seconds, 0)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, problems in runner.problems[:20]:
        print(f"check failed: {name}: {'; '.join(problems[:5])}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _unit(key):
    field = key.rpartition(".")[2]
    if field.endswith("_s"):
        return "s"
    if key == "src.lines":
        return "lines"
    return "count"


UNITS = {k: _unit(k) for k in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
