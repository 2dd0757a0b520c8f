import numpy as np
import pytest

from liodom.config import (ConfigError, PipelineConfig, dumps_config,
                           load_config, save_config)


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(str(path))
    assert cfg == PipelineConfig()


def test_none_path_gives_defaults():
    assert load_config(None) == PipelineConfig()


def test_roundtrip_identity(tmp_path):
    cfg = PipelineConfig()
    cfg.supervisor.hold_time = 0.7
    cfg.icp.max_iterations = 17
    cfg.frontend.voxel_size = 0.25
    cfg.window.lag = 4.5
    cfg.extrinsics.translation = [0.0, 0.1, 0.0]
    path = str(tmp_path / "cfg.yaml")
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg
    # serializing again produces identical text
    assert dumps_config(back) == dumps_config(cfg)


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


def test_imu_config_to_params():
    cfg = PipelineConfig()
    params = cfg.imu.to_params()
    assert params.accel_noise_density == cfg.imu.accel_noise_density
    assert np.allclose(params.gravity, [0.0, 0.0, -9.81])
