"""Outside-in tracer for dpdfit, installed from the benchmark's own files.

`from .x import f` binds f in the importing module at import time, so
patching x.f alone would miss most calls. install() therefore wraps
each public function of the traced modules once and rebinds every name
in every loaded dpdfit module that points at the original; uninstall()
puts every original back.

Wrapped functions either record a span (name, job, start, end, parent,
thread CPU at start and end) on a per-thread stack, or, for leaf
functions called inside quadrature integrands and bisection loops,
only count calls, since a span there would cost more than the call.
Spans stay in memory until the caller aggregates or dumps them.
"""

import functools
import inspect
import json
import sys
import threading
import time

MODULES = (
    "cli",
    "dataio",
    "selection",
    "tuning",
    "estimator",
    "asymptotics",
    "numerics",
    "families",
    "uncertainty",
)

COUNT_ONLY = {
    # cli.main's self time should be the CLI's own parsing and output work.
    "cli": {"run", "parse_args"},
    "families": {"log_density", "density", "cdf", "score", "v_alpha", "check_dpd_valid", "dpd_mass_integral"},
    "numerics": {"log_gamma", "reg_incomplete_gamma_lower", "std_normal_cdf", "find_root_bracketed"},
}

# Several entry points that do one job share one span name.
SPAN_NAME = {("dataio", "load_csv"): "dataio.load", ("dataio", "load_panel"): "dataio.load"}

# Span record fields.
NAME, JOB, START, END, PARENT, CPU0, CPU1 = range(7)
ROOT = "cli.main"


def _fit_kind(args, kwargs):
    """full, fast or warm, from fit(family, alpha, sample, warm_start=None, fast=False)."""
    warm = kwargs.get("warm_start", args[3] if len(args) > 3 else None)
    fast = kwargs.get("fast", args[4] if len(args) > 4 else False)
    if warm is not None:
        return "estimator.fit_warm"
    return "estimator.fit_fast" if fast else "estimator.fit_full"


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.stack = []
        self.spans = []
        self.counts = {}


class Tracer:
    def __init__(self):
        self.job = None
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patched = []  # (module, attribute, original)

    # --- state ------------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def reset(self):
        """Drop recorded spans and counts; keep the wrappers installed."""
        with self._lock:
            for st in self._states:
                st.spans.clear()
                st.counts.clear()

    def _count(self, st, key, amount=1):
        st.counts[key] = st.counts.get(key, 0) + amount

    # --- wrappers ---------------------------------------------------------

    def _counting(self, name, fn):
        tracer = self
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.counts[key] = st.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__bench_wrapped__ = True
        return wrapper

    def _spanning(self, name, fn):
        tracer = self
        is_fit = name == "estimator.fit"
        is_bootstrap = name == "uncertainty.bootstrap_se"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            span_name = _fit_kind(args, kwargs) if is_fit else name
            parent = st.stack[-1] if st.stack else -1
            rec = [span_name, tracer.job, time.perf_counter(), 0.0, parent, time.thread_time(), 0.0]
            st.stack.append(len(st.spans))
            st.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_fit:
                    tracer._count(st, "estimator.fit.errors")
                raise
            finally:
                rec[END] = time.perf_counter()
                rec[CPU1] = time.thread_time()
                st.stack.pop()
            if is_fit:
                tracer._count(st, span_name + ".evals", result.evaluations)
                if not result.converged:
                    tracer._count(st, "estimator.fit.nonconverged")
            elif is_bootstrap:
                tracer._count(st, "uncertainty.bootstrap_se.failures", result.failures)
            return result

        wrapper.__bench_wrapped__ = True
        return wrapper

    # --- install / uninstall ----------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "dpdfit" or n.startswith("dpdfit.")]
        wrappers = {}
        for short in MODULES:
            mod = sys.modules["dpdfit." + short]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = SPAN_NAME.get((short, attr), f"{short}.{attr}")
                if attr in COUNT_ONLY.get(short, ()):
                    wrappers[id(fn)] = (fn, self._counting(name, fn))
                else:
                    wrappers[id(fn)] = (fn, self._spanning(name, fn))
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- results ----------------------------------------------------------

    def aggregate(self):
        """{name: {calls, total_s, self_s, wait_s}} over spans, plus plain counts.

        Self time is a span's duration minus the union of its children's
        intervals. Children are the spans whose parent it is on its own
        thread and, for a job's cli.main span, the outermost spans of the
        same job on other threads (the report's per-series pool), which
        overlap one another.
        """
        with self._lock:
            states = list(self._states)
        children = {}
        mains = {}
        for t, st in enumerate(states):
            for i, rec in enumerate(st.spans):
                if rec[PARENT] >= 0:
                    children.setdefault((t, rec[PARENT]), []).append((rec[START], rec[END]))
                elif rec[NAME] == ROOT:
                    mains.setdefault(rec[JOB], []).append((t, i))
        for t, st in enumerate(states):
            for rec in st.spans:
                if rec[PARENT] < 0 and rec[NAME] != ROOT:
                    for mt, mi in mains.get(rec[JOB], ()):
                        main = states[mt].spans[mi]
                        if mt != t and main[START] <= rec[START] and rec[END] <= main[END]:
                            children.setdefault((mt, mi), []).append((rec[START], rec[END]))
        stats = {}
        counts = {}
        for t, st in enumerate(states):
            for i, rec in enumerate(st.spans):
                dur = rec[END] - rec[START]
                s = stats.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "wait_s": 0.0})
                s["calls"] += 1
                s["total_s"] += dur
                s["self_s"] += dur - _union_length(children.get((t, i), ()))
                s["wait_s"] += dur - (rec[CPU1] - rec[CPU0])
            for key, value in st.counts.items():
                counts[key] = counts.get(key, 0) + value
        return stats, counts

    def dump(self, path):
        """Write every recorded span as JSON, one list per thread."""
        with self._lock:
            states = list(self._states)
        doc = {
            "fields": ["name", "job", "start", "end", "parent", "cpu_start", "cpu_end"],
            "threads": [{"ident": st.ident, "spans": st.spans, "counts": st.counts} for st in states],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _union_length(intervals):
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def leftover_wrappers():
    """(module, attribute) pairs in loaded dpdfit modules still bound to a tracer wrapper."""
    found = []
    for n, mod in sorted(sys.modules.items()):
        if n == "dpdfit" or n.startswith("dpdfit."):
            for attr, value in vars(mod).items():
                if getattr(value, "__bench_wrapped__", False):
                    found.append((n, attr))
    return found
