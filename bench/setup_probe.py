"""One benchmark set-up, timed from outside by run.py.

Does what a run does before its first timed job: start the
interpreter, import dpdfit and write the workload's inputs.

    python3 bench/setup_probe.py WORKLOAD KEY WORKDIR
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import dpdfit.cli  # noqa: E402,F401  (the import is the work being timed)
from workloads import write_inputs  # noqa: E402

if __name__ == "__main__":
    workload, key, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    write_inputs(workload, key, workdir)
