"""Benchmark entry point.

    python3 perfbench/run.py --workload regulate --seed 1 --seconds 36 --trace 0

Workloads: regulate, track, identify (see workloads.py).  --trace 0 prints
the end-to-end metrics, --trace 1 a separate traced run's per-layer
metrics.  The last line of standard output is the JSON result; the run
also writes it, with the environment record, to .bench_out/ under the
repository root.  Exits nonzero when a correctness check fails.
"""

import time

T_PROCESS = time.perf_counter()   # set-up is timed from the first line

import os
import sys
from pathlib import Path

# one single-threaded process: pin BLAS before NumPy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main():
    if not (SRC / "grumpc" / "__init__.py").is_file():
        print(f"error: no grumpc sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    return workloads.main(sys.argv[1:], T_PROCESS, Path(__file__).resolve())


if __name__ == "__main__":
    sys.exit(main())
