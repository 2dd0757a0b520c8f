"""Pipeline configuration: one YAML file drives every module.

Unknown keys are rejected; every field has a documented default so an empty
file is a valid config.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import yaml

from .preintegration import ImuNoiseParams
from .scan_matching import IcpParams
from .smoother import PriorConfig, WindowConfig


@dataclass
class FrontendConfig:
    voxel_size: float = 0.08            # m; 0 disables downsampling
    normal_k: int = 40

    def __post_init__(self):
        # written so that NaN fails too; bool is not accepted as an int
        if not self.voxel_size >= 0:
            raise ValueError(f"voxel_size must be >= 0, got {self.voxel_size!r}")
        if type(self.normal_k) is not int or not self.normal_k >= 3:
            raise ValueError(f"normal_k must be an integer >= 3, got {self.normal_k!r}")


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
        if not 0 <= self.hold_time < math.inf:     # NaN fails too
            raise ValueError(f"hold_time must be finite and >= 0, got {self.hold_time!r}")
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

    def __post_init__(self):
        t = self.translation
        if len(t) != 3 or not all(math.isfinite(x) for x in t):
            raise ValueError(f"translation must be three finite numbers, got {t!r}")
        if not math.isfinite(self.yaw):
            raise ValueError(f"yaw must be finite, got {self.yaw!r}")


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


def _build(cls, data: dict, section: str):
    prefix = f"{section}." if section else ""
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys at {section or 'top level'}: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        f = known[name]
        if is_dataclass(f.default_factory):         # a section
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{name} must be a mapping")
            kwargs[name] = _build(f.default_factory, value, prefix + name)
            continue
        default = f.default if f.default is not MISSING else f.default_factory()
        if not _type_matches(value, default):
            kind = "float" if isinstance(default, float) else type(default).__name__
            raise ConfigError(f"{prefix}{name} must be of type {kind}, got {value!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid config section {section or 'top level'}: {e}") from e


def _type_matches(value, default) -> bool:
    """An int may stand for a float, but a bool is never a number; a list's
    items are matched against its default's first item."""
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, list):
        return isinstance(value, list) and all(_type_matches(v, default[0])
                                               for v in value)
    return type(value) is type(default)


def load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    with open(path) as f:
        data = yaml.safe_load(f) or {}
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    return _build(PipelineConfig, data, "")

