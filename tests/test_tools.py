import importlib.util
import os

import numpy as np
import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools")


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_arrival_replay_summary_of_stamps():
    tool = _load_tool("arrival_replay")
    n, period = 30, 0.1
    scans = [1.0 + k * period for k in range(n)]          # scan timestamps
    due = [k * period for k in range(n)]
    # scans 10-14 take 150 ms, so the next scan is due before their pose
    pose = [d + (0.15 if 10 <= k < 15 else 0.05) for k, d in enumerate(due)]
    stamped = list(zip(scans, due))
    stamps = {"due": stamped, "load": stamped, "pose": pose,
              "end": pose[-1] + 0.01}

    live = tool.summarize(stamps, rate=1 / period)
    assert live["scans"] == n
    assert live["next_waiting_frac"] == round(5 / (n - 1), 3)
    assert live["due_to_pose_ms"]["p50"] == pytest.approx(50.0)
    assert live["load_to_pose_ms"] == live["due_to_pose_ms"]
    assert tool.tail_percentile(n) == 66
    assert live["wall_s"] == pytest.approx(pose[-1] + 0.01)

    # several loads in flight record their stamps out of scan order; each
    # is paired with its own scan's pose all the same
    shuffled = [stamped[k] for k in
                np.random.default_rng(0).permutation(n)]
    assert shuffled != stamped
    late = {"due": shuffled, "load": stamped[::-1]}
    assert tool.summarize(dict(stamps, **late), rate=1 / period) == live

    assert "due_to_pose_ms" not in tool.summarize(stamps, rate=0.0)
    with pytest.raises(RuntimeError):
        tool.summarize(dict(stamps, pose=pose[:-1]), rate=0.0)
    with pytest.raises(RuntimeError):
        tool.summarize(dict(stamps, load=stamped[1:] + [(99.0, 9.9)]), rate=0.0)
    with pytest.raises(RuntimeError):
        tool.summarize(dict(stamps, due=stamped + stamped[:1]), rate=0.0)


def test_compare_runs_digests_every_dataset_file(tmp_path):
    """A dataset keeps its scans in a sub-folder: every file under it is
    hashed by its relative path, and one changed scan marks the run."""
    tool = _load_tool("compare_runs")
    sides = []
    for side in ("a", "b"):
        (tmp_path / side / "scans").mkdir(parents=True)
        (tmp_path / side / "imu.csv").write_text("timestamp\n")
        for k in range(3):
            (tmp_path / side / "scans" / f"{k}.csv").write_text(f"x,y,z\n{k}\n")
        sides.append(tool.digests(str(tmp_path / side)))
    assert sorted(sides[0]) == ["imu.csv", os.path.join("scans", "0.csv"),
                                os.path.join("scans", "1.csv"),
                                os.path.join("scans", "2.csv")]
    assert tool.verdict("dataset", *sides) == "dataset 4 files identical"
    (tmp_path / "b" / "scans" / "1.csv").write_text("x,y,z\n-0\n")
    changed = tool.digests(str(tmp_path / "b"))
    assert tool.differing(sides[0], changed) == [os.path.join("scans", "1.csv")]
    assert tool.verdict("dataset", sides[0], changed).startswith(
        "dataset 1 of 4 files DIFFERENT: scans")
    assert tool.seed_list("0-2,5") == [0, 1, 2, 5]
