"""Per-scan latency of `run_pipeline` when scans arrive on a schedule.

    python3 tools/arrival_replay.py SRC [SRC ...] --workload corridor \
        --seed 0 --rate 10 --pairs 5

Run from the repository root. Each SRC is a `src/` directory holding a
`liodom` package, e.g. this tree's `src` and a parent commit's, unpacked
with `git archive`. The workload's dataset (perfbench/workloads.py) is
generated once, then each SRC replays it `--pairs` times, in its own
process with BLAS pinned to one thread, rotating which SRC goes first.

Scans arrive on an open loop: scan k is due at start + k / rate, where
start is the first scan's load, and `pipeline.load_csv` waits until its scan
is due. `--rate 0` makes every scan due at start, a backlogged batch replay
like perfbench's. A scan's pose is out when the smoother's `optimize` for it
returns. Per run it prints, one JSON line each:

- `due_to_pose_ms`: from the scan's due time to its pose (rate > 0 only),
  which counts the wait behind earlier scans;
- `load_to_pose_ms`: from the start of the scan's load to its pose;
- `next_waiting_frac`: the share of scans whose successor was due before
  their pose was out, i.e. the share on which the back-end had a next scan
  ready and a front-end working ahead could overlap with it;
- `wall_s`: first load to `run_pipeline`'s return.

Timings are a median and the highest percentile with at least ten scans
beyond it. The last line gives each SRC's medians over its runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPLAY = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from liodom import pipeline, smoother
from liodom.config import PipelineConfig

rate = float(sys.argv[4])
load_csv, optimize = pipeline.load_csv, smoother.FixedLagSmoother.optimize
due, load, pose = [], [], []

def scheduled_load(*args, **kwargs):
    if not due:
        due.append(time.perf_counter())
    else:
        due.append(due[0] + (len(due) / rate if rate else 0.0))
    time.sleep(max(0.0, due[-1] - time.perf_counter()))
    load.append(time.perf_counter())
    return load_csv(*args, **kwargs)

def stamped_optimize(self):
    cost = optimize(self)
    pose.append(time.perf_counter())
    return cost

pipeline.load_csv = scheduled_load
smoother.FixedLagSmoother.optimize = stamped_optimize
pipeline.run_pipeline(sys.argv[2], PipelineConfig(), sys.argv[3])
end = time.perf_counter()
print(json.dumps({"due": due, "load": load, "pose": pose, "end": end}))
"""


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond."""
    return int(100 * (1 - 10 / n)) if n >= 20 else 50


def summarize(stamps: dict, rate: float) -> dict:
    due, load, pose = stamps["due"], stamps["load"], stamps["pose"]
    if not len(due) == len(load) == len(pose):
        raise RuntimeError(f"{len(due)} scans due, {len(load)} loaded, "
                           f"{len(pose)} poses: one optimize per scan expected")
    n = len(pose)
    tail = tail_percentile(n)

    def timing(ms):
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        return {"p50": round(statistics.median(ms), 2),
                f"p{tail}": round(cuts[tail - 1], 2)}

    result = {"scans": n,
              "load_to_pose_ms": timing([1e3 * (p - s) for s, p in zip(load, pose)])}
    if rate:
        result["due_to_pose_ms"] = timing([1e3 * (p - d) for d, p in zip(due, pose)])
    result["next_waiting_frac"] = round(
        sum(d < p for d, p in zip(due[1:], pose)) / (n - 1), 3)
    result["wall_s"] = round(stamps["end"] - due[0], 3)
    return result


def main(argv=None) -> int:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    # perfbench is read, never written: no bytecode cache lands there
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS, setup

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("srcs", nargs="+", metavar="SRC")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rate", type=float, default=10.0,
                        help="scans per second; 0 for all scans at once")
    parser.add_argument("--pairs", type=int, default=1,
                        help="runs of each SRC")
    args = parser.parse_args(argv)
    if args.rate < 0:
        parser.error("--rate must be >= 0")
    for src in args.srcs:
        if not os.path.isdir(os.path.join(src, "liodom")):
            parser.error(f"no liodom package under {src}")

    runs = {src: [] for src in args.srcs}
    with tempfile.TemporaryDirectory(prefix="arrival_replay-") as tmp:
        dataset, out = os.path.join(tmp, "dataset"), os.path.join(tmp, "out")
        setup(WORKLOADS[args.workload], args.seed, dataset)
        for i in range(args.pairs):
            k = i % len(args.srcs)
            for src in args.srcs[k:] + args.srcs[:k]:
                proc = subprocess.run(
                    [sys.executable, "-c", REPLAY, os.path.abspath(src), dataset,
                     out, str(args.rate)],
                    env=env, check=True, capture_output=True, text=True)
                shutil.rmtree(out)
                result = summarize(json.loads(proc.stdout.splitlines()[-1]),
                                   args.rate)
                runs[src].append(result)
                print(json.dumps({"src": src, "workload": args.workload,
                                  "seed": args.seed, "rate": args.rate,
                                  "run": i, **result}), flush=True)

    def median_of(results, key):
        if key not in results[0]:
            return None
        if isinstance(results[0][key], dict):
            return {q: round(statistics.median(r[key][q] for r in results), 2)
                    for q in results[0][key]}
        return round(statistics.median(r[key] for r in results), 3)

    keys = ("due_to_pose_ms", "load_to_pose_ms", "next_waiting_frac", "wall_s")
    print(json.dumps({"medians": {src: {key: median_of(results, key)
                                        for key in keys}
                                  for src, results in runs.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
