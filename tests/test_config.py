import numpy as np
import pytest

from liodom.config import ConfigError, PipelineConfig, load_config
from liodom.preintegration import ImuNoiseParams


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(str(path))
    assert cfg == PipelineConfig()


def test_none_path_gives_defaults():
    assert load_config(None) == PipelineConfig()


def test_partial_override(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("observability:\n  threshold: 3.0\n"
                    "icp:\n  max_correspondence_distance: 0.2\n")
    cfg = load_config(str(path))
    assert cfg.observability.threshold == 3.0
    assert cfg.icp.max_correspondence_distance == 0.2
    assert cfg.icp.max_iterations == PipelineConfig().icp.max_iterations
    assert cfg.window.lag == PipelineConfig().window.lag


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("frontend:\n  voxels: 0.1\n")
    with pytest.raises(ConfigError, match="voxels"):
        load_config(str(path))
    path.write_text("lidar_mode: fast\n")
    with pytest.raises(ConfigError, match="lidar_mode"):
        load_config(str(path))
    # simulator settings are not pipeline settings
    path.write_text("seed: 0\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config(str(path))
    path.write_text("window:\n  foo: 1\n")
    with pytest.raises(ConfigError) as e:
        load_config(str(path))
    assert str(e.value) == "unknown keys at window: ['foo']"
    path.write_text("supervisor:\n  wheel_vel_noise_std: 0.02\n")
    with pytest.raises(ConfigError, match="wheel_vel_noise_std"):
        load_config(str(path))
    # point-to-plane is the only ICP cost
    for key, value in (("cost_variant", "gicp"), ("robust_loss", "huber"),
                       ("huber_delta", 0.1)):
        path.write_text(f"icp:\n  {key}: {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))


@pytest.mark.parametrize("priorities", [
    "{lio: high, wheel: 1}",       # not an integer
    "{lio: true}",                 # YAML bool, not an integer
    "{lidar: 5}",                  # no such source
    "[lio, wheel]",                # not a mapping
])
def test_bad_supervisor_priorities_rejected(tmp_path, priorities):
    path = tmp_path / "cfg.yaml"
    path.write_text(f"supervisor:\n  priorities: {priorities}\n")
    with pytest.raises(ConfigError, match="priorities"):
        load_config(str(path))


def test_partial_supervisor_priorities_accepted(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("supervisor:\n  priorities: {wheel: -1}\n")
    assert load_config(str(path)).supervisor.priorities == {"wheel": -1}


def test_invalid_value_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("icp:\n  max_iterations: 0\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("icp: 3\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    # a condition number is at least 1: this threshold would flag every scan
    path.write_text("observability:\n  threshold: 1.0\n")
    with pytest.raises(ConfigError, match="observability"):
        load_config(str(path))
    path.write_text("extrinsics:\n  translation: [1.0, 2.0]\n")
    with pytest.raises(ConfigError) as e:
        load_config(str(path))
    assert str(e.value) == ("invalid config section extrinsics: translation "
                            "must be three finite numbers, got [1.0, 2.0]")


@pytest.mark.parametrize("key", [
    "icp.max_iterations", "icp.translation_epsilon", "icp.rotation_epsilon",
    "icp.max_correspondence_distance", "window.lag",
    "imu.accel_noise_density", "imu.gyro_noise_density",
    "imu.accel_bias_walk", "imu.gyro_bias_walk", "imu.gravity",
    "observability.threshold",
])
def test_nan_value_rejected(tmp_path, key):
    section, name = key.split(".")
    path = tmp_path / "cfg.yaml"
    path.write_text(f"{section}:\n  {name}: .nan\n")
    with pytest.raises(ConfigError, match=section):
        load_config(str(path))


def test_imu_section_is_noise_params(tmp_path):
    """The imu section builds the smoother's ImuNoiseParams directly, with
    gravity given as a magnitude."""
    path = tmp_path / "cfg.yaml"
    path.write_text("imu:\n  accel_noise_density: 1.0e-3\n  gravity: 9.8\n")
    imu = load_config(str(path)).imu
    assert isinstance(imu, ImuNoiseParams)
    assert imu.accel_noise_density == 1e-3
    assert imu.gyro_noise_density == ImuNoiseParams().gyro_noise_density
    assert np.array_equal(imu.gravity_W, [0.0, 0.0, -9.8])
    assert np.array_equal(PipelineConfig().imu.gravity_W, [0.0, 0.0, -9.81])


@pytest.mark.parametrize("key,value", [
    ("frontend.voxel_size", ".nan"),
    ("frontend.normal_k", "2"),
    ("window.max_gn_iterations", "0"),
    ("window.convergence_epsilon", ".nan"),
    ("priors.pose_rot_std", "0"),
    ("priors.pose_trans_std", ".nan"),
    ("priors.velocity_std", "0"),
    ("priors.accel_bias_std", "-0.1"),
    ("priors.gyro_bias_std", "0"),
    ("priors.extr_rot_std", ".nan"),
    ("priors.extr_trans_std", "0"),
    ("priors.extr_walk_rot_std", "0"),
    ("priors.extr_walk_trans_std", "-1.0e-4"),
    ("supervisor.hold_time", ".nan"),
    ("supervisor.hold_time", "-1.0"),
    ("extrinsics.translation", "[.nan, 0, 0]"),
    ("extrinsics.translation", "[1.0, 2.0]"),
    ("extrinsics.yaw", ".nan"),
    ("icp.max_iterations", "30.5"),
    ("icp.max_iterations", "true"),
    ("icp.normal_compat_angle", ".nan"),
    ("frontend.voxel_size", "abc"),
    ("extrinsics.translation", "5"),
    ("extrinsics.translation", "[abc, 0, 0]"),
    ("extrinsics.translation", "[true, 0, 0]"),
])
def test_bad_value_exits_2_at_load(dataset, tmp_path, capsys, key, value):
    """`liodom run` rejects the value before it makes the output directory,
    naming the key."""
    from liodom.cli import main
    section, name = key.split(".")
    path = tmp_path / "cfg.yaml"
    path.write_text(f"{section}:\n  {name}: {value}\n")
    out = tmp_path / "out"
    assert main(["run", dataset, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and name in err
    assert not out.exists()
