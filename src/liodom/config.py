"""Pipeline configuration: one YAML file drives every module.

Unknown keys are rejected; every field has a documented default so an empty
file is a valid config.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import yaml

from .preintegration import ImuNoiseParams
from .scan_matching import IcpParams
from .smoother import PriorConfig, WindowConfig


@dataclass
class FrontendConfig:
    voxel_size: float = 0.08            # m; 0 disables downsampling
    normal_k: int = 40


@dataclass
class ImuConfig:
    accel_noise_density: float = 2e-3
    gyro_noise_density: float = 2e-4
    accel_bias_walk: float = 1e-4
    gyro_bias_walk: float = 1e-4
    gravity: float = 9.81

    def to_params(self) -> ImuNoiseParams:
        return ImuNoiseParams(self.accel_noise_density, self.gyro_noise_density,
                              self.accel_bias_walk, self.gyro_bias_walk,
                              [0.0, 0.0, -self.gravity])


@dataclass
class ObservabilityConfig:
    threshold: float = 10.0


@dataclass
class SupervisorConfig:
    hold_time: float = 0.5
    priorities: dict = field(default_factory=lambda: {"lio": 0, "wheel": 1})

    def __post_init__(self):
        # lower value = higher priority; bool is not accepted as an int
        if (not isinstance(self.priorities, dict)
                or not set(self.priorities) <= {"lio", "wheel"}
                or any(type(v) is not int for v in self.priorities.values())):
            raise ValueError("priorities must map 'lio' and/or 'wheel' to "
                             f"integers, got {self.priorities!r}")


@dataclass
class ExtrinsicsConfig:
    """Initial lidar-to-body extrinsics guess [x, y, z] and yaw (rad)."""
    translation: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    yaw: float = 0.0


@dataclass
class PipelineConfig:
    icp: IcpParams = field(default_factory=IcpParams)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    imu: ImuConfig = field(default_factory=ImuConfig)
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    window: WindowConfig = field(default_factory=WindowConfig)
    priors: PriorConfig = field(default_factory=PriorConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    extrinsics: ExtrinsicsConfig = field(default_factory=ExtrinsicsConfig)


class ConfigError(ValueError):
    pass


def _build(cls, data: dict, path: str):
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys at {path or 'top level'}: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        sub = _SUBSECTIONS.get((cls, name))
        if sub is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{path}{name} must be a mapping")
            kwargs[name] = _build(sub, value, f"{path}{name}.")
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid config section {path or 'top level'}: {e}") from e


_SUBSECTIONS = {
    (PipelineConfig, "icp"): IcpParams,
    (PipelineConfig, "frontend"): FrontendConfig,
    (PipelineConfig, "imu"): ImuConfig,
    (PipelineConfig, "observability"): ObservabilityConfig,
    (PipelineConfig, "window"): WindowConfig,
    (PipelineConfig, "priors"): PriorConfig,
    (PipelineConfig, "supervisor"): SupervisorConfig,
    (PipelineConfig, "extrinsics"): ExtrinsicsConfig,
}


def load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    with open(path) as f:
        data = yaml.safe_load(f) or {}
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    return _build(PipelineConfig, data, "")


def dumps_config(cfg: PipelineConfig) -> str:
    def clean(obj):
        if hasattr(obj, "__dataclass_fields__"):
            obj = asdict(obj)
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if hasattr(obj, "item"):            # numpy scalar
            return obj.item()
        return obj
    return yaml.safe_dump(clean(cfg), sort_keys=True)


def save_config(cfg: PipelineConfig, path: str) -> None:
    with open(path, "w") as f:
        f.write(dumps_config(cfg))
