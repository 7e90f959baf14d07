"""multinet benchmark: one workload, one process, one closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload train-update1 --seed 1 --seconds 20 --trace 0

Prints the environment and a human-readable report as JSON lines, then, as
the last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Exits non-zero
without a result when the multinet sources are not beside this directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads are pinned before numpy loads; one thread is faster than two
# for these small matrices and is steadier on a shared machine.
BLAS_THREADS = 1
WORKLOAD_NAMES = ("train-update1", "train-shared", "analyze-update1")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main() -> int:
    args = parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "multinet" / "__init__.py").is_file():
        print(f"multinet sources not found at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench

    return bench.main(args, T_START, time.perf_counter(), BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
