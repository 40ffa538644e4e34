"""Every demo's stdout, byte for byte, against its golden in tests/golden/.

The demos run the public routes end to end, so a change meant to leave
results alone must leave these bytes alone. After a change that is meant
to move them, re-record one with
PYTHONPATH=src python demos/NAME.py > tests/golden/NAME.out
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def test_one_golden_per_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, cwd=ROOT, env=env, timeout=600
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()
