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
