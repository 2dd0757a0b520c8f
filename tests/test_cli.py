import os
import shutil

import numpy as np
import pytest

from liodom import cli
from liodom.cli import main
from liodom.geometry import rot_z, so3_log


def test_usage_errors_exit_1():
    assert main(["sim", "--preset", "warehouse", "--out", "/tmp/x"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1


def test_missing_dataset_exits_nonzero(tmp_path):
    missing = str(tmp_path / "nope")
    assert main(["run", missing, "--out", str(tmp_path / "out")]) == 1


def test_broken_dataset_exits_2(tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    assert main(["run", str(broken), "--out", str(tmp_path / "out")]) == 2


def test_run_has_no_seed_flag(dataset, tmp_path):
    """The pipeline has no randomness of its own to seed; the simulator's
    seed is `liodom sim --seed`."""
    assert main(["run", dataset, "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 1


def test_bad_config_exits_2(dataset, tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("frontend:\n  voxels: 0.1\n")
    assert main(["run", dataset, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("text", [
    "supervisor:\n  priorities: {lio: high, wheel: 1}\n",
    "supervisor:\n  priorities: {lidar: 5}\n",
    "icp:\n  cost_variant: gicp\n",
])
def test_bad_config_value_exits_2_without_traceback(dataset, tmp_path, capsys,
                                                    text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    assert main(["run", dataset, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["- 1\n", "imu: [1, 2]\n"])
def test_malformed_sensor_yaml_exits_2_without_traceback(dataset, tmp_path,
                                                        capsys, spec):
    d = tmp_path / "ds"
    shutil.copytree(dataset, d)
    (d / "sensor.yaml").write_text(spec)
    assert main(["run", str(d), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "Traceback" not in err


def _raise_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("Matrix is singular")


def _log_of_half_turn(*args, **kwargs):
    so3_log(rot_z(np.pi))


@pytest.mark.parametrize("failure", [_raise_linalg, _log_of_half_turn])
def test_numerical_failure_exits_3_without_traceback(dataset, tmp_path, capsys,
                                                    monkeypatch, failure):
    """LinAlgError is a ValueError, and must not be reported as bad data."""
    monkeypatch.setattr(cli, "run_pipeline", failure)
    assert main(["run", dataset, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err


def test_sim_run_eval_obs_pipeline(dataset, tmp_path):
    out = str(tmp_path / "run")
    assert main(["run", dataset, "--out", out]) == 0
    for f in ("trajectory_lio.txt", "trajectory_scan_to_scan.txt",
              "trajectory_unified.txt", "observability.csv",
              "switches.csv", "extrinsics.csv"):
        assert os.path.isfile(os.path.join(out, f)), f

    ev_out = str(tmp_path / "eval")
    assert main(["eval", os.path.join(out, "trajectory_lio.txt"),
                 os.path.join(dataset, "ground_truth.csv"),
                 "--out", ev_out, "--max-dt", "0.06"]) == 0
    assert os.path.isfile(os.path.join(ev_out, "eval.csv"))
    assert os.path.isfile(os.path.join(ev_out, "errors.csv"))

    obs_out = str(tmp_path / "obs")
    assert main(["obs", dataset, "--out", obs_out]) == 0
    assert os.path.isfile(os.path.join(obs_out, "observability.csv"))
    assert os.path.isfile(os.path.join(obs_out, "obs_summary.csv"))
    # both commands take their reports from the same front-end stage
    with open(os.path.join(out, "observability.csv"), "rb") as f_run, \
            open(os.path.join(obs_out, "observability.csv"), "rb") as f_obs:
        assert f_obs.read() == f_run.read()


def test_run_supervisor_off(dataset, tmp_path):
    out = str(tmp_path / "run_nosup")
    assert main(["run", dataset, "--out", out, "--supervisor", "off"]) == 0
    switches = open(os.path.join(out, "switches.csv")).read().strip()
    assert switches.splitlines() == ["time,from,to,reason"]


def test_stationary_estimate_stays_put(dataset, tmp_path):
    from liodom.evalkit import load_tum
    out = str(tmp_path / "run_stat")
    assert main(["run", dataset, "--out", out]) == 0
    traj = load_tum(os.path.join(out, "trajectory_lio.txt"))
    drift = max(np.linalg.norm(p.translation - traj[0][1].translation)
                for _, p in traj)
    assert drift < 0.05


def test_obs_threshold_from_config(dataset, tmp_path):
    """The config's observability.threshold applies unless --threshold is
    given. The stationary room has kappa near 3.7, so 2.0 flags every scan."""
    from liodom.observability import load_observability_csv
    cfg = tmp_path / "obs.yaml"
    cfg.write_text("observability:\n  threshold: 2.0\n")
    out = str(tmp_path / "obs_cfg")
    assert main(["obs", dataset, "--config", str(cfg), "--out", out]) == 0
    log = load_observability_csv(os.path.join(out, "observability.csv"))
    assert len(log["warning"]) > 0 and log["warning"].all()
    out = str(tmp_path / "obs_flag")
    assert main(["obs", dataset, "--config", str(cfg), "--threshold", "10",
                 "--out", out]) == 0
    log = load_observability_csv(os.path.join(out, "observability.csv"))
    assert not log["warning"].any()
