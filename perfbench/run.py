"""liodom benchmark runner.

    python3 perfbench/run.py --workload corridor --seed 0 --seconds 20 --trace 0

Run from the repository root. Builds the workload's dataset from the seed,
replays it through the pipeline in this process with BLAS/OpenMP pinned to
one thread, checks the outputs, prints every metric by name and unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
`--record` stores this run's accuracy as the reference for its seed.
`--full` instead replays the whole preset once and prints its accuracy; at
seed 0 it checks corridor and calib-offset against the ROADMAP baseline.
Exit codes: 0 success, 1 failed correctness check, 2 usage error or no
importable liodom under src/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for var in THREAD_VARS:        # must precede the first numpy import
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import liodom
    except ImportError as e:
        print(f"cannot import liodom from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(liodom.__file__).startswith(src + os.sep):
        print(f"liodom was imported from {liodom.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import bench
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)

    work_root = os.path.join(ROOT, ".perfbench_work")
    if args.full:
        return 0 if bench.check_full(WORKLOADS[args.workload], args.seed,
                                     work_root) else 1
    result = bench.run(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), work_root, record=args.record)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
