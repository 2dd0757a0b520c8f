import numpy as np
import pytest

from liodom.evalkit import (associate, evaluate, load_tum,
                            summarize_observability, write_errors_csv,
                            write_eval_csv, write_obs_summary_csv, write_tum)
from liodom.geometry import Pose, rot_z


def straight_line(n=50, dt=0.1, speed=1.0, yaw=0.0):
    return [(i * dt, Pose(rot_z(yaw), np.array([speed * i * dt, 0.0, 0.0])))
            for i in range(n)]


def test_tum_roundtrip(tmp_path):
    rows = straight_line(10, yaw=0.3)
    path = str(tmp_path / "traj.txt")
    write_tum(path, rows)
    back = load_tum(path)
    assert len(back) == 10
    for (t1, p1), (t2, p2) in zip(rows, back):
        assert t1 == pytest.approx(t2)
        assert np.allclose(p1.translation, p2.translation, atol=1e-8)
        assert np.allclose(p1.rotation, p2.rotation, atol=1e-7)


def test_associate_nearest_within_tolerance():
    est = straight_line(50)
    gt = [(t + 0.004, p) for t, p in straight_line(50)]
    pairs = associate(est, gt, max_dt=0.02)
    assert len(pairs) == 50
    pairs = associate(est, gt[:5] + [(100.0, gt[0][1])], max_dt=0.02)
    assert len(pairs) == 5


def test_associate_rejects_empty():
    with pytest.raises(ValueError):
        associate([], straight_line(5))
    with pytest.raises(ValueError):
        associate(straight_line(5), [(99.0, Pose.identity())], max_dt=0.01)


def test_evaluate_perfect_trajectory():
    pairs = associate(straight_line(50), straight_line(50))
    ev = evaluate(pairs)
    assert ev.rmse_position == pytest.approx(0.0, abs=1e-12)
    assert ev.rmse_attitude == pytest.approx(0.0, abs=1e-9)
    assert ev.path_length == pytest.approx(4.9)
    assert ev.percent_drift == pytest.approx(0.0, abs=1e-10)


def test_evaluate_known_offset_oracle():
    gt = straight_line(50)
    est = [(t, Pose(p.rotation, p.translation + [0.0, 0.3, 0.4])) for t, p in gt]
    ev = evaluate(associate(est, gt), align="none")
    assert ev.rmse_position == pytest.approx(0.5)
    est = [(t, Pose(rot_z(0.2) @ p.rotation, p.translation)) for t, p in gt]
    ev = evaluate(associate(est, gt), align="none")
    assert ev.rmse_attitude == pytest.approx(0.2)
    # the offset is pure yaw
    assert np.allclose(ev.rpy_errors[:, :2], 0.0, atol=1e-12)
    assert np.allclose(ev.rpy_errors[:, 2], 0.2, atol=1e-12)


def test_rigid_start_alignment_removes_constant_transform():
    gt = straight_line(50)
    G = Pose(rot_z(0.5), np.array([2.0, -1.0, 0.3]))
    est = [(t, Pose(G.rotation @ p.rotation,
                    G.rotation @ p.translation + G.translation))
           for t, p in gt]
    ev = evaluate(associate(est, gt), align="rigid-start")
    assert ev.rmse_position == pytest.approx(0.0, abs=1e-10)
    assert ev.rmse_attitude == pytest.approx(0.0, abs=1e-9)


def test_evaluate_validation():
    pairs = associate(straight_line(50), straight_line(50))
    with pytest.raises(ValueError):
        evaluate(pairs[:1])
    with pytest.raises(ValueError):
        evaluate(pairs, align="umeyama")


def test_eval_csv_outputs(tmp_path):
    gt = straight_line(30)
    est = [(t, Pose(p.rotation, p.translation + [0.1, 0.0, 0.0]))
           for t, p in gt]
    ev = evaluate(associate(est, gt), align="none")
    write_eval_csv(ev, str(tmp_path / "eval.csv"))
    write_errors_csv(ev, str(tmp_path / "errors.csv"))
    header, row = (tmp_path / "eval.csv").read_text().strip().splitlines()
    assert header.split(",")[:3] == ["t_m", "t_pct", "R_rad"]
    assert float(row.split(",")[0]) == pytest.approx(0.1)
    lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 30


def test_summarize_observability_segments():
    t = np.linspace(0.0, 30.0, 301)
    kappa = np.where((t > 10.0) & (t < 20.0), 50.0, 3.0)
    segs = summarize_observability({"timestamp": t, "kappa_tt": kappa},
                                   threshold=10.0, n_segments=3)
    assert len(segs) == 3
    assert segs[0]["kappa_max"] < 10.0
    assert segs[1]["kappa_min"] > 10.0 or segs[1]["frac_above_threshold"] > 0.9
    assert segs[2]["kappa_max"] < 10.0


def test_summarize_observability_empty():
    with pytest.raises(ValueError):
        summarize_observability({"timestamp": np.array([]),
                                 "kappa_tt": np.array([])})


def test_obs_summary_csv(tmp_path):
    t = np.linspace(0.0, 9.0, 10)
    segs = summarize_observability({"timestamp": t,
                                    "kappa_tt": np.full(10, 5.0)},
                                   threshold=10.0)
    path = tmp_path / "summary.csv"
    write_obs_summary_csv(segs, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(segs)
    assert "kappa_max" in lines[0]
