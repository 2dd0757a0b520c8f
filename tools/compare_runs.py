"""Check that a revision and the working tree write byte-identical outputs.

    python3 tools/compare_runs.py REV --seeds 0-9

Run from the repository root. For each workload (default: corridor and
room-dense, from perfbench/workloads.py) and seed, the dataset is generated
once with the working tree's simulator, then `run_pipeline` replays it with
the default config twice: once with the working tree's `src/` and once with
REV's, checked out in a temporary `git worktree`. Each replay runs in its
own process with BLAS pinned to one thread, as perfbench runs it. The
SHA-256 of every output file is compared. Exit code 0 when every file of
every run is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPLAY = """
import sys
sys.path.insert(0, sys.argv[1])
from liodom.config import PipelineConfig
from liodom.pipeline import run_pipeline
run_pipeline(sys.argv[2], PipelineConfig(), sys.argv[3])
"""


def seed_list(text: str) -> list[int]:
    """'0-9' or '0,3,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def replay(src: str, dataset: str, out: str) -> None:
    subprocess.run([sys.executable, "-c", REPLAY, src, dataset, out],
                   check=True)


def digests(out_dir: str) -> dict[str, str]:
    result = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            result[name] = hashlib.sha256(f.read()).hexdigest()
    return result


def main(argv=None) -> int:
    for var in THREAD_VARS:        # as perfbench/run.py, before numpy loads
        os.environ[var] = "1"
    # perfbench is read, never written: no bytecode cache lands there
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS, setup

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workloads", default="corridor,room-dense",
                        help="comma-separated names from perfbench/workloads.py")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")

    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as tmp:
        tree = os.path.join(tmp, "rev")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        "--quiet", tree, args.rev], check=True)
        try:
            sides = {"working tree": os.path.join(ROOT, "src"),
                     args.rev: os.path.join(tree, "src")}
            for name in names:
                for seed in args.seeds:
                    dataset = os.path.join(tmp, f"{name}-{seed}")
                    setup(WORKLOADS[name], seed, dataset)
                    sums = {}
                    for side, src in sides.items():
                        out = os.path.join(tmp, f"out-{len(sums)}")
                        replay(src, dataset, out)
                        sums[side] = digests(out)
                    a, b = sums.values()
                    bad = sorted(f for f in a.keys() | b.keys()
                                 if a.get(f) != b.get(f))
                    differ += bool(bad)
                    verdict = ("identical" if not bad
                               else "DIFFERENT: " + ", ".join(bad))
                    print(f"{name:12s} seed {seed}: {len(a)} files {verdict}",
                          flush=True)
                    for path in (dataset, *(os.path.join(tmp, f"out-{k}")
                                            for k in range(2))):
                        shutil.rmtree(path)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            tree], check=False)
    print(f"# {differ} of {len(names) * len(args.seeds)} runs differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
