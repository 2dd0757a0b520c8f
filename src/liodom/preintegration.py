"""On-manifold IMU preintegration between consecutive lidar keyframes.

Summarizes high-rate gyro/accelerometer samples into a single relative
motion constraint (dR, dv, dp) with a 9x9 covariance (ordering rotation,
velocity, position) and first-order bias Jacobians, so the smoother can
re-linearize bias without re-integrating.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import skew, so3_exp, so3_right_jacobian


@dataclass(frozen=True)
class ImuSample:
    timestamp: float
    accel: np.ndarray    # specific force in B [m/s^2]
    gyro: np.ndarray     # angular rate in B [rad/s]

    def __post_init__(self):
        object.__setattr__(self, "accel", np.asarray(self.accel, float).reshape(3))
        object.__setattr__(self, "gyro", np.asarray(self.gyro, float).reshape(3))


@dataclass(frozen=True)
class ImuBias:
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "accel_bias",
                           np.asarray(self.accel_bias, float).reshape(3))
        object.__setattr__(self, "gyro_bias",
                           np.asarray(self.gyro_bias, float).reshape(3))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.accel_bias, self.gyro_bias])


@dataclass(frozen=True)
class ImuNoiseParams:
    """Continuous-time spectral densities; discrete variances are density^2/dt."""
    accel_noise_density: float = 2e-3     # m/s^2/sqrt(Hz)
    gyro_noise_density: float = 2e-4      # rad/s/sqrt(Hz)
    accel_bias_walk: float = 1e-4
    gyro_bias_walk: float = 1e-4
    gravity: float = 9.81                 # m/s^2, magnitude

    def __post_init__(self):
        # written so that NaN fails too
        if not all(x > 0 for x in (self.accel_noise_density,
                                   self.gyro_noise_density, self.accel_bias_walk,
                                   self.gyro_bias_walk, self.gravity)):
            raise ValueError("noise densities and gravity must be positive")

    @property
    def gravity_W(self) -> np.ndarray:
        """The gravity vector in the z-up world frame."""
        return np.array([0.0, 0.0, -self.gravity])


@dataclass
class PreintegratedDelta:
    dR: np.ndarray = field(default_factory=lambda: np.eye(3))
    dv: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dt_total: float = 0.0
    covariance: np.ndarray = field(default_factory=lambda: np.zeros((9, 9)))
    dR_dbg: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    dv_dbg: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    dv_dba: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    dp_dbg: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    dp_dba: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    bias_lin: ImuBias = field(default_factory=ImuBias)

    def copy(self) -> "PreintegratedDelta":
        return PreintegratedDelta(
            self.dR.copy(), self.dv.copy(), self.dp.copy(), self.dt_total,
            self.covariance.copy(), self.dR_dbg.copy(), self.dv_dbg.copy(),
            self.dv_dba.copy(), self.dp_dbg.copy(), self.dp_dba.copy(),
            self.bias_lin)


def integrate(delta: PreintegratedDelta, s: ImuSample, dt: float,
              noise: ImuNoiseParams) -> PreintegratedDelta:
    """One Euler step at IMU rate; dR/dv on the right-hand sides are the
    pre-update values."""
    if dt <= 0:
        raise ValueError(f"non-positive dt: {dt}")
    d = delta.copy()
    w = s.gyro - d.bias_lin.gyro_bias
    a = s.accel - d.bias_lin.accel_bias
    dRk = d.dR
    incr = so3_exp(w * dt)
    Jr = so3_right_jacobian(w * dt)

    # covariance and bias-Jacobian propagation uses the pre-update dR
    A = np.eye(9)
    A[0:3, 0:3] = incr.T
    A[3:6, 0:3] = -dRk @ skew(a) * dt
    A[6:9, 0:3] = -0.5 * dRk @ skew(a) * dt**2
    A[6:9, 3:6] = np.eye(3) * dt
    B = np.zeros((9, 6))                      # columns: [gyro, accel]
    B[0:3, 0:3] = Jr * dt
    B[3:6, 3:6] = dRk * dt
    B[6:9, 3:6] = 0.5 * dRk * dt**2
    Q = np.diag(np.concatenate([
        np.full(3, noise.gyro_noise_density**2 / dt),
        np.full(3, noise.accel_noise_density**2 / dt)]))
    d.covariance = A @ d.covariance @ A.T + B @ Q @ B.T

    d.dp_dbg = d.dp_dbg + d.dv_dbg * dt - 0.5 * dRk @ skew(a) @ d.dR_dbg * dt**2
    d.dp_dba = d.dp_dba + d.dv_dba * dt - 0.5 * dRk * dt**2
    d.dv_dbg = d.dv_dbg - dRk @ skew(a) @ d.dR_dbg * dt
    d.dv_dba = d.dv_dba - dRk * dt
    d.dR_dbg = incr.T @ d.dR_dbg - Jr * dt

    d.dp = d.dp + d.dv * dt + 0.5 * dRk @ a * dt**2
    d.dv = d.dv + dRk @ a * dt
    d.dR = dRk @ incr
    d.dt_total += dt
    return d


def integrate_window(samples: list[ImuSample], t0: float, t1: float,
                     bias: ImuBias, noise: ImuNoiseParams) -> PreintegratedDelta:
    """Preintegrate the samples covering [t0, t1).

    Samples are zero-order-hold between timestamps; the samples straddling
    the window edges are linearly time-split.
    """
    if t1 <= t0:
        raise ValueError("window must have positive duration")
    d = PreintegratedDelta(bias_lin=bias)
    for idx, s in enumerate(samples):
        t_next = samples[idx + 1].timestamp if idx + 1 < len(samples) else t1
        seg0 = max(s.timestamp, t0)
        seg1 = min(t_next, t1)
        if seg1 > seg0:
            d = integrate(d, s, seg1 - seg0, noise)
    return d


def bias_corrected(delta: PreintegratedDelta, bias: ImuBias
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dR, dv, dp) re-linearized to first order at `bias`."""
    dbg = bias.gyro_bias - delta.bias_lin.gyro_bias
    dba = bias.accel_bias - delta.bias_lin.accel_bias
    return (delta.dR @ so3_exp(delta.dR_dbg @ dbg),
            delta.dv + delta.dv_dbg @ dbg + delta.dv_dba @ dba,
            delta.dp + delta.dp_dbg @ dbg + delta.dp_dba @ dba)


def correct_for_bias(delta: PreintegratedDelta, new_bias: ImuBias) -> PreintegratedDelta:
    """First-order re-linearization at a new bias; no re-integration."""
    dbg = new_bias.gyro_bias - delta.bias_lin.gyro_bias
    dba = new_bias.accel_bias - delta.bias_lin.accel_bias
    if max(np.linalg.norm(dbg), np.linalg.norm(dba)) > 0.1:
        warnings.warn("large bias update; first-order correction may be inaccurate")
    d = delta.copy()
    d.dR, d.dv, d.dp = bias_corrected(delta, new_bias)
    d.bias_lin = new_bias
    return d


def predict(R_i: np.ndarray, p_i: np.ndarray, v_i: np.ndarray,
            delta: PreintegratedDelta,
            gravity: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate a state through the delta under the world gravity vector:
    returns (R_j, p_j, v_j)."""
    dt = delta.dt_total
    R_j = R_i @ delta.dR
    v_j = v_i + gravity * dt + R_i @ delta.dv
    p_j = p_i + v_i * dt + 0.5 * gravity * dt**2 + R_i @ delta.dp
    return R_j, p_j, v_j


def save_imu_csv(samples: list[ImuSample], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["timestamp", "ax", "ay", "az", "gx", "gy", "gz"])
        for s in samples:
            w.writerow([f"{s.timestamp:.9f}"]
                       + [f"{x:.9f}" for x in s.accel]
                       + [f"{x:.9f}" for x in s.gyro])


def load_imu_csv(path: str) -> list[ImuSample]:
    samples = []
    with open(path) as f:
        for row in csv.DictReader(f):
            samples.append(ImuSample(float(row["timestamp"]),
                                     [float(row[k]) for k in ("ax", "ay", "az")],
                                     [float(row[k]) for k in ("gx", "gy", "gz")]))
    t = [s.timestamp for s in samples]
    if any(b <= a for a, b in zip(t, t[1:])):
        raise ValueError("IMU timestamps must be strictly increasing")
    return samples
