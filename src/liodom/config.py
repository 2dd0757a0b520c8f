"""Pipeline configuration: one YAML file drives every module.

Unknown keys are rejected; every field has a documented default so an empty
file is a valid config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import yaml

from .preintegration import ImuNoiseParams
from .scan_matching import IcpParams
from .smoother import PriorConfig, WindowConfig


@dataclass
class FrontendConfig:
    voxel_size: float = 0.08            # m; 0 disables downsampling
    normal_k: int = 40


@dataclass
class ObservabilityConfig:
    threshold: float = 10.0

    def __post_init__(self):
        # a condition number is at least 1, so a threshold at or below 1
        # would flag every scan; written so that NaN fails too
        if not self.threshold > 1:
            raise ValueError("observability threshold must exceed 1")


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
    imu: ImuNoiseParams = field(default_factory=ImuNoiseParams)
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
    (PipelineConfig, "imu"): ImuNoiseParams,
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

