"""Shared fixtures and small builders for the test-suite."""

import numpy as np
import pytest

from dpdfit import estimator
from dpdfit.dataio import Sample

# numpy's floating-point RuntimeWarnings fail the test that leaks one:
# the package computes where such a value could arise under np.errstate.
FLOATING_POINT_WARNINGS = (
    "divide by zero encountered",
    "invalid value encountered",
    "overflow encountered",
)


def pytest_configure(config):
    for message in FLOATING_POINT_WARNINGS:
        config.addinivalue_line("filterwarnings", f"error:{message}:RuntimeWarning")


def as_sample(values, label="test-sample"):
    """Wrap an iterable of positive floats as a Sample."""
    return Sample(values=tuple(float(v) for v in values), dry_count=0, label=label)


def newton_calls(monkeypatch):
    """Log every estimator._newton_rows call from here on: a list, in call
    order, of (family, alphas, values, weights, starts, (theta, solved,
    evaluations))."""
    calls = []
    solve = estimator._newton_rows

    def logged(family, alphas, values, weights, starts):
        out = solve(family, alphas, values, weights, starts)
        calls.append((family, alphas, values, weights, np.array(starts), out))
        return out

    monkeypatch.setattr(estimator, "_newton_rows", logged)
    return calls


def write_csv(path, values, column="value"):
    """Write a one-column CSV (plus a year column) and return the path."""
    with open(path, "w") as fh:
        fh.write(f"year,{column}\n")
        for i, v in enumerate(values):
            fh.write(f"{1951 + i},{v}\n")
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
