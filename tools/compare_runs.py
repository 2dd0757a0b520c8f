"""Check that a revision and the working tree write byte-identical files.

    python3 tools/compare_runs.py REV --seeds 0-9

Run from the repository root. For each workload (default: corridor and
room-dense, from perfbench/workloads.py) and seed, each side generates the
dataset with its own simulator (`setup` from its own perfbench/workloads.py)
and replays it through `run_pipeline` with the default config: once the
working tree, once REV, extracted with `git archive` into a temporary
directory. Each step runs in its own process with that side's `src/` and
`perfbench/` on the path and BLAS pinned to one thread, as perfbench runs
it. The SHA-256 of every dataset file and of every output file is compared;
a run differs when either does. Exit code 0 when every run is identical, 1
otherwise.
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
GENERATE = """
import os, sys
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(sys.argv[1], d) for d in ("src", "perfbench")]
from workloads import WORKLOADS, setup
setup(WORKLOADS[sys.argv[2]], int(sys.argv[3]), sys.argv[4])
"""
REPLAY = """
import os, sys
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
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


def generate(tree: str, workload: str, seed: int, dataset: str) -> None:
    subprocess.run([sys.executable, "-c", GENERATE, tree, workload, str(seed),
                    dataset], check=True)


def replay(tree: str, dataset: str, out: str) -> None:
    subprocess.run([sys.executable, "-c", REPLAY, tree, dataset, out],
                   check=True)


def digests(top: str) -> dict[str, str]:
    """SHA-256 of every file under `top`, keyed by its path relative to it."""
    result = {}
    for folder, _, names in os.walk(top):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                result[os.path.relpath(path, top)] = \
                    hashlib.sha256(f.read()).hexdigest()
    return result


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))


def verdict(kind: str, a: dict[str, str], b: dict[str, str]) -> str:
    """'dataset 86 files identical', or the count and first names differing."""
    bad = differing(a, b)
    if not bad:
        return f"{kind} {len(a)} files identical"
    return (f"{kind} {len(bad)} of {len(a.keys() | b.keys())} files "
            f"DIFFERENT: {', '.join(bad[:5])}{' ...' if len(bad) > 5 else ''}")


def main(argv=None) -> int:
    for var in THREAD_VARS:        # as perfbench/run.py, before numpy loads
        os.environ[var] = "1"
    # perfbench is read, never written: no bytecode cache lands there
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS

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
        os.mkdir(tree)
        subprocess.run(["git", "-C", ROOT, "archive", "-o", tree + ".tar",
                        args.rev], check=True)
        subprocess.run(["tar", "-xf", tree + ".tar", "-C", tree], check=True)
        for name in names:
            for seed in args.seeds:
                data, outs = [], []
                for k, root in enumerate((ROOT, tree)):
                    dataset = os.path.join(tmp, f"data-{k}")
                    out = os.path.join(tmp, f"out-{k}")
                    generate(root, name, seed, dataset)
                    replay(root, dataset, out)
                    data.append(digests(dataset))
                    outs.append(digests(out))
                    shutil.rmtree(dataset)
                    shutil.rmtree(out)
                same = not differing(*data) and not differing(*outs)
                differ += not same
                print(f"{name:12s} seed {seed}: {verdict('dataset', *data)}; "
                      f"{verdict('outputs', *outs)}", flush=True)
    print(f"# {differ} of {len(names) * len(args.seeds)} runs differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
