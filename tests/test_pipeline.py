import copy
import os
import shutil
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from liodom import pipeline
from liodom.cli import main
from liodom.config import PipelineConfig
from liodom.evalkit import load_tum
from liodom.geometry import rot_z, so3_exp
from liodom.pipeline import (DatasetError, _apply_sensor_spec, _imu_slice,
                             attitude_from_gravity, load_dataset, run_pipeline)
from liodom.preintegration import ImuNoiseParams, ImuSample
from liodom.scan_matching import RelativePoseMeasurement
from liodom.smoother import FixedLagSmoother

GRAVITY_W = ImuNoiseParams().gravity_W


def test_attitude_from_gravity_level():
    R = attitude_from_gravity(np.array(-GRAVITY_W))
    assert np.allclose(R, np.eye(3), atol=1e-12)


def test_attitude_from_gravity_recovers_tilt():
    """A body tilted by R reads accel = R^T (-g); the bootstrap must return
    a rotation with the same roll/pitch (yaw is unobservable, fixed to 0)."""
    for axis, angle in [([1, 0, 0], 0.3), ([0, 1, 0], -0.2),
                        ([1, 1, 0], 0.15)]:
        R_true = so3_exp(np.asarray(axis, float)
                         / np.linalg.norm(axis) * angle)
        accel = R_true.T @ (-np.asarray(GRAVITY_W))
        R = attitude_from_gravity(accel)
        # gravity direction matches regardless of the yaw convention
        assert np.allclose(R @ accel, -GRAVITY_W, atol=1e-9)


def test_attitude_from_gravity_yaw_free():
    accel = rot_z(1.1).T @ (-np.asarray(GRAVITY_W))
    R = attitude_from_gravity(accel)
    assert np.allclose(R, np.eye(3), atol=1e-9)


def test_imu_slice_covers_interval():
    imu = [ImuSample(0.1 * i, np.zeros(3), np.zeros(3)) for i in range(100)]
    times = np.array([s.timestamp for s in imu])
    part = _imu_slice(imu, times, 1.0, 2.0)
    # includes the sample straddling t0 and everything strictly before t1
    assert part[0].timestamp == pytest.approx(1.0)
    assert part[-1].timestamp == pytest.approx(1.9)
    mid = _imu_slice(imu, times, 1.05, 1.25)
    assert mid[0].timestamp == pytest.approx(1.0)
    assert mid[-1].timestamp == pytest.approx(1.2)


def test_load_dataset_rejects_non_dataset(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(str(tmp_path))
    (tmp_path / "scans").mkdir()
    (tmp_path / "imu.csv").write_text("timestamp,ax,ay,az,gx,gy,gz\n")
    with pytest.raises(DatasetError, match="no scans"):
        load_dataset(str(tmp_path))


def test_run_pipeline_leaves_caller_config_unchanged(dataset, tmp_path):
    """The dataset's sensor.yaml applies to the run, not to the caller's
    config, so a reused config does not carry it into the next run."""
    cfg = PipelineConfig()
    cfg.imu = replace(cfg.imu, accel_noise_density=5e-2, gyro_noise_density=5e-3)
    cfg.priors.accel_bias_std = 0.3
    cfg.priors.gyro_bias_std = 0.03
    before = copy.deepcopy(cfg)
    run_pipeline(dataset, cfg, str(tmp_path / "out"))
    assert cfg == before
    with open(os.path.join(dataset, "sensor.yaml")) as f:
        spec = yaml.safe_load(f)["imu"]
    used = _apply_sensor_spec(dataset, cfg)
    assert used.imu.accel_noise_density == spec["accel_noise_density"]
    assert used.imu.gyro_noise_density == spec["gyro_noise_density"]
    assert used.priors.accel_bias_std == spec["accel_bias_std"]
    assert used.priors.gyro_bias_std == spec["gyro_bias_std"]


def test_tiny_scan_gives_gap_keyframes(dataset, tmp_path, monkeypatch):
    """A scan with fewer than 20 points gives keyframes without a lidar
    measurement into and out of it, matching resumes on the next pair, and
    every trajectory still holds one pose per scan."""
    d = tmp_path / "ds"
    shutil.copytree(dataset, d)
    names = sorted(os.listdir(d / "scans"), key=lambda s: int(s.split(".")[0]))
    tiny = d / "scans" / names[10]
    tiny.write_text("".join(tiny.read_text().splitlines(True)[:6]))  # 5 points
    seen = []
    add_keyframe = FixedLagSmoother.add_keyframe

    def record(self, t, delta, lidar):
        seen.append(lidar)
        add_keyframe(self, t, delta, lidar)

    monkeypatch.setattr(FixedLagSmoother, "add_keyframe", record)
    out = tmp_path / "out"
    run_pipeline(str(d), PipelineConfig(), str(out))
    assert len(seen) == len(names)
    assert [k for k, m in enumerate(seen) if m is None] == [0, 10, 11]
    resumed = seen[12]
    assert isinstance(resumed, RelativePoseMeasurement) and resumed.converged
    assert resumed.timestamp_from == pytest.approx(
        int(names[11].split(".")[0]) * 1e-9)
    for name in ("lio", "scan_to_scan", "unified"):
        assert len(load_tum(str(out / f"trajectory_{name}.txt"))) == len(names)
    with open(out / "extrinsics.csv") as f:
        assert len(f.read().strip().splitlines()) == len(names) + 1


OUTPUTS = ("trajectory_lio.txt", "trajectory_scan_to_scan.txt",
           "trajectory_wheel.txt", "trajectory_unified.txt",
           "observability.csv", "switches.csv", "extrinsics.csv")


def test_run_does_not_read_ground_truth(dataset, tmp_path):
    """Deleting ground_truth.csv changes no output byte: the estimator runs
    on the sensors and the wheel odometry alone."""
    d = tmp_path / "ds"
    shutil.copytree(dataset, d)
    os.remove(d / "ground_truth.csv")
    run_pipeline(dataset, PipelineConfig(), str(tmp_path / "with_gt"))
    run_pipeline(str(d), PipelineConfig(), str(tmp_path / "without_gt"))
    for name in OUTPUTS:
        assert (tmp_path / "with_gt" / name).read_bytes() \
            == (tmp_path / "without_gt" / name).read_bytes(), name


@pytest.mark.parametrize("wheel_csv", ["absent", "empty"])
def test_no_wheel_odometry_gives_lio_as_unified(dataset, tmp_path, wheel_csv):
    """Without wheel poses there is nothing to switch to: no wheel
    trajectory, the unified output is the LIO one, and no switch is logged."""
    d = tmp_path / "ds"
    shutil.copytree(dataset, d)
    if wheel_csv == "absent":
        os.remove(d / "wheel.csv")
        assert load_dataset(str(d))[2] is None
    else:
        (d / "wheel.csv").write_text("")
    out = tmp_path / "out"
    run_pipeline(str(d), PipelineConfig(), str(out))
    assert not (out / "trajectory_wheel.txt").exists()
    assert (out / "trajectory_unified.txt").read_bytes() \
        == (out / "trajectory_lio.txt").read_bytes()
    assert (out / "switches.csv").read_text().splitlines() \
        == ["time,from,to,reason"]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_front_end_loads_each_scan_once_at_most_workers_ahead(
        dataset, tmp_path, monkeypatch, workers):
    """Every scan is loaded exactly once, on at most `WORKERS` threads that
    are not the caller's, and at most `WORKERS` scans ahead of the
    back-end: the load of scan k+`WORKERS`+1 starts only after scan k's
    keyframe is added. The back-end is slowed down, so that a stage running
    further ahead would have loaded that scan by then, and so that with
    several workers some scan k+2 is loaded before keyframe k. The order in
    which loads on different threads are recorded is not asserted: two
    workers can race on it."""
    events = []
    load_csv, add_keyframe = pipeline.load_csv, FixedLagSmoother.add_keyframe

    def record_load(path, timestamp=None):
        events.append(("load", timestamp, threading.current_thread()))
        return load_csv(path, timestamp=timestamp)

    def record_keyframe(self, t, delta, lidar):
        time.sleep(0.03)
        events.append(("keyframe", t, threading.current_thread()))
        add_keyframe(self, t, delta, lidar)

    monkeypatch.setattr(pipeline, "WORKERS", workers)
    monkeypatch.setattr(pipeline, "load_csv", record_load)
    monkeypatch.setattr(FixedLagSmoother, "add_keyframe", record_keyframe)
    threads = threading.active_count()
    run_pipeline(dataset, PipelineConfig(), str(tmp_path / "out"))
    assert threading.active_count() == threads

    times = [int(os.path.basename(p).split(".")[0]) * 1e-9
             for p in load_dataset(dataset)[0]]
    assert sorted(t for k, t, _ in events if k == "load") == times
    assert [t for k, t, _ in events if k == "keyframe"] == times
    caller = threading.current_thread()
    loaders = {th for k, _, th in events if k == "load"}
    assert len(loaders) <= workers and caller not in loaders
    assert {th for k, _, th in events if k == "keyframe"} == {caller}
    at = {(k, t): i for i, (k, t, _) in enumerate(events)}
    for k in range(len(times) - workers - 1):
        assert at["keyframe", times[k]] < at["load", times[k + workers + 1]], k
    if workers >= 2:
        assert any(at["load", times[k + 2]] < at["keyframe", times[k]]
                   for k in range(len(times) - 2))


def test_outputs_do_not_depend_on_the_worker_count(dataset, tmp_path,
                                                   monkeypatch):
    """`run_pipeline` and `liodom obs` write the same bytes with one
    front-end worker as with three."""
    for workers in (1, 3):
        monkeypatch.setattr(pipeline, "WORKERS", workers)
        run_pipeline(dataset, PipelineConfig(), str(tmp_path / f"run{workers}"))
        assert main(["obs", dataset, "--out", str(tmp_path / f"obs{workers}")]) == 0
    for kind in ("run", "obs"):
        names = sorted(os.listdir(tmp_path / f"{kind}1"))
        assert names == sorted(os.listdir(tmp_path / f"{kind}3"))
        for name in names:
            assert (tmp_path / f"{kind}1" / name).read_bytes() \
                == (tmp_path / f"{kind}3" / name).read_bytes(), (kind, name)
    assert set(OUTPUTS) <= set(os.listdir(tmp_path / "run1"))


def _nan_row_in_scan_10(d, monkeypatch):
    names = sorted(os.listdir(d / "scans"), key=lambda s: int(s.split(".")[0]))
    scan = d / "scans" / names[10]
    lines = scan.read_text().splitlines(True)
    scan.write_text("".join(lines[:3] + ["nan,nan,nan\n"] + lines[3:]))


def _singular_third_keyframe(d, monkeypatch):
    optimize, calls = FixedLagSmoother.optimize, []

    def failing(self):
        calls.append(None)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Matrix is singular")
        return optimize(self)

    monkeypatch.setattr(FixedLagSmoother, "optimize", failing)


@pytest.mark.parametrize("fault, code, message, workers", [
    pytest.param(_nan_row_in_scan_10, 2, "data error:", None,
                 id="_nan_row_in_scan_10-2-data error:"),
    pytest.param(_singular_third_keyframe, 3, "numerical failure:", None,
                 id="_singular_third_keyframe-3-numerical failure:"),
    pytest.param(_nan_row_in_scan_10, 2, "data error:", 2,
                 id="_nan_row_in_scan_10-two-workers"),
    pytest.param(_singular_third_keyframe, 3, "numerical failure:", 2,
                 id="_singular_third_keyframe-two-workers"),
])
def test_fault_mid_run_exits_with_its_code_and_leaves_no_thread(
        dataset, tmp_path, monkeypatch, capsys, fault, code, message, workers):
    """A bad scan raised in the front-end stage and a numerical failure in
    the back-end, while later scans are in flight, both end the run with
    their documented exit code, and no thread outlives it: with this
    host's worker count, and with two workers whatever the host."""
    d = tmp_path / "ds"
    shutil.copytree(dataset, d)
    fault(d, monkeypatch)
    if workers is not None:
        monkeypatch.setattr(pipeline, "WORKERS", workers)
    threads = threading.active_count()
    assert main(["run", str(d), "--out", str(tmp_path / "out")]) == code
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
