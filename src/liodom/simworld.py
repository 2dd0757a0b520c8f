"""Synthetic plane-patch worlds, ray-cast lidar, noisy IMU, ground truth.

Worlds are finite rectangular patches with exact analytic normals, which
keeps every observability and registration experiment oracle-checkable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .evalkit import write_tum
from .geometry import Pose, rot_to_quat, rot_z, so3_log
from .pointcloud import PointCloud, save_csv
from .preintegration import (ImuBias, ImuNoiseParams, ImuSample,
                             save_imu_csv)


@dataclass
class Patch:
    """Finite rectangle: corner plus two edge vectors; normal = unit(e1 x e2)."""
    corner: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        self.corner = np.asarray(self.corner, float).reshape(3)
        self.e1 = np.asarray(self.e1, float).reshape(3)
        self.e2 = np.asarray(self.e2, float).reshape(3)
        n = np.cross(self.e1, self.e2)
        self.normal = n / np.linalg.norm(n)
        self.len1 = np.linalg.norm(self.e1)
        self.len2 = np.linalg.norm(self.e2)
        self.u1 = self.e1 / self.len1
        self.u2 = self.e2 / self.len2
        # a ball holding the patch, with room for the inside test's 1e-9
        # slack: a ray that misses the ball misses the patch
        self.center = self.corner + 0.5 * (self.e1 + self.e2)
        self.radius = 0.5 * np.linalg.norm(self.e1 + self.e2) + 1e-6


@dataclass
class WorldModel:
    patches: list[Patch]

    def to_json(self, path: str) -> None:
        data = {"patches": [{"corner": p.corner.tolist(), "e1": p.e1.tolist(),
                             "e2": p.e2.tolist()} for p in self.patches]}
        with open(path, "w") as f:
            json.dump(data, f, indent=1)


def box(center, size) -> list[Patch]:
    """Axis-aligned box as 6 outward-facing patches."""
    c = np.asarray(center, float)
    sx, sy, sz = np.asarray(size, float)
    hx, hy, hz = sx / 2, sy / 2, sz / 2
    ex, ey, ez = np.eye(3)
    return [
        Patch(c + [hx, -hy, -hz], sy * ey, sz * ez),    # +x face
        Patch(c + [-hx, -hy, -hz], sz * ez, sy * ey),   # -x face
        Patch(c + [-hx, hy, -hz], sz * ez, sx * ex),    # +y face
        Patch(c + [-hx, -hy, -hz], sx * ex, sz * ez),   # -y face
        Patch(c + [-hx, -hy, hz], sx * ex, sy * ey),    # +z face
        Patch(c + [-hx, -hy, -hz], sy * ey, sx * ex),   # -z face
    ]


def room(center, size) -> list[Patch]:
    """Inward-facing box (walls seen from inside)."""
    patches = box(center, size)
    # flip normals inward by swapping edge vectors
    return [Patch(p.corner, p.e2, p.e1) for p in patches]


def raycast_batch(world: WorldModel, origin: np.ndarray, dirs: np.ndarray,
                  max_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-hit over all patches.

    Returns (points (N,3), hit patch index into `world.patches` (N,)); a
    miss has a zero point and index -1. A ray hitting two patches at the
    same distance takes the earlier one.
    """
    n_rays = len(dirs)
    best_t = np.full(n_rays, np.inf)
    best_patch = np.full(n_rays, -1)
    sq_len = np.einsum("ij,ij->i", dirs, dirs)
    for k, p in enumerate(world.patches):
        denom = dirs @ p.normal
        num = (p.corner - origin) @ p.normal
        # the plane hit t = num / denom is ahead (t > 1e-9) only where denom
        # has num's sign, and can be on the patch only if the ray meets the
        # patch's ball (unless the ball holds the origin)
        can = denom > 1e-12 if num > 0 else denom < -1e-12
        w = p.center - origin
        reach = w @ w - p.radius ** 2
        if reach > 0:
            proj = dirs @ w
            can &= (proj > 0) & (proj * proj >= reach * sq_len)
        # of those rays, only one whose hit is in range and strictly nearer
        # than its best so far can take this patch: the earlier patch keeps
        # a tie. Only these rays get the inside test.
        cand = np.flatnonzero(can)
        t = num / denom[cand]
        near = (t > 1e-9) & (t <= max_range) & (t < best_t[cand])
        cand, t = cand[near], t[near]
        if not len(cand):
            continue
        rel = origin + t[:, None] * dirs[cand] - p.corner
        u = rel @ p.u1
        v = rel @ p.u2
        inside = (u >= -1e-9) & (u <= p.len1 + 1e-9) \
            & (v >= -1e-9) & (v <= p.len2 + 1e-9)
        best_t[cand[inside]] = t[inside]
        best_patch[cand[inside]] = k
    mask = best_patch >= 0
    points = np.zeros((n_rays, 3))
    points[mask] = origin + best_t[mask, None] * dirs[mask]
    return points, best_patch


@dataclass(frozen=True)
class LidarModel:
    n_azimuth: int = 120
    n_elevation: int = 16
    elevation_fov: float = np.deg2rad(100.0)  # total vertical FOV
    max_range: float = 10.0
    range_noise_std: float = 0.01
    rate: float = 10.0

    @cached_property
    def directions(self) -> np.ndarray:
        """Unit ray directions in the lidar frame, azimuth-major (N, 3);
        computed once per model, which is frozen so they cannot go stale."""
        az = np.linspace(0, 2 * np.pi, self.n_azimuth, endpoint=False)
        el = np.linspace(-self.elevation_fov / 2, self.elevation_fov / 2,
                         self.n_elevation)
        azg, elg = np.meshgrid(az, el, indexing="ij")
        d = np.stack([np.cos(elg) * np.cos(azg),
                      np.cos(elg) * np.sin(azg),
                      np.sin(elg)], axis=-1).reshape(-1, 3)
        d.flags.writeable = False
        return d


def simulate_scan(world: WorldModel, pose: Pose, model: LidarModel,
                  rng: np.random.Generator | None = None,
                  timestamp: float = 0.0) -> PointCloud:
    """One instantaneous scan expressed in the lidar frame."""
    dirs_l = model.directions
    dirs_w = dirs_l @ pose.rotation.T
    pts_w, patch = raycast_batch(world, pose.translation, dirs_w,
                                 model.max_range)
    mask = patch >= 0
    ranges = np.linalg.norm(pts_w[mask] - pose.translation, axis=1)
    if rng is not None and model.range_noise_std > 0:
        ranges = ranges + rng.normal(0.0, model.range_noise_std, len(ranges))
    return PointCloud(timestamp, dirs_l[mask] * ranges[:, None])


@dataclass
class TrajectorySpec:
    """Time-stamped position+yaw waypoints, interpolated with clamped C2
    splines (zero boundary velocity)."""
    times: np.ndarray
    positions: np.ndarray      # (N, 3)
    yaws: np.ndarray           # (N,) unwrapped radians

    def __post_init__(self):
        self.times = np.asarray(self.times, float)
        self.positions = np.asarray(self.positions, float)
        self.yaws = np.unwrap(np.asarray(self.yaws, float))
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        bc = ((1, np.zeros(3)), (1, np.zeros(3)))
        self._pos = CubicSpline(self.times, self.positions, bc_type=bc)
        self._yaw = CubicSpline(self.times, self.yaws, bc_type=((1, 0.0), (1, 0.0)))
        self._vel = self._pos.derivative(1)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def pose(self, t: float) -> Pose:
        return Pose(rot_z(float(self._yaw(t))), self._pos(t), "W", "B")

    def velocity(self, t: float) -> np.ndarray:
        return self._vel(t)


def simulate_imu(traj: TrajectorySpec, noise: ImuNoiseParams, bias: ImuBias,
                 rate: float, rng: np.random.Generator | None = None
                 ) -> list[ImuSample]:
    """Noisy biased IMU stream consistent with zero-order-hold integration.

    Rates are interval averages (finite differences of the spline pose and
    velocity), so integrating each sample as constant over [t, t+dt]
    reproduces the trajectory exactly rather than to first order.
    """
    dt = 1.0 / rate
    t0 = np.arange(traj.times[0], traj.times[-1], dt)
    t1 = np.minimum(t0 + dt, traj.times[-1])
    span = np.maximum(t1 - t0, 1e-12)[:, None]
    R0T = rot_z(traj._yaw(t0)).transpose(0, 2, 1)
    dv_w = traj.velocity(t1) - traj.velocity(t0)
    accels = np.matvec(R0T, dv_w / span - noise.gravity_W) + bias.accel_bias
    # one stacked log for all samples; each row is the log of its turn alone
    gyros = (so3_log(R0T @ rot_z(traj._yaw(t1))) / span
             + bias.gyro_bias)
    rates = np.hstack([accels, gyros])
    if rng is not None:
        # one draw in the order of per-sample accel then gyro triples
        scale = np.repeat([noise.accel_noise_density,
                           noise.gyro_noise_density], 3) * np.sqrt(rate)
        rates = rates + rng.normal(0.0, scale, rates.shape)
    return [ImuSample(t, r[:3], r[3:]) for t, r in zip(t0.tolist(), rates)]


# the wheel noise keeps one seed for every dataset seed, as the recorded
# benchmark runs had it
WHEEL_SEED = 9173


def wheel_inertial_trajectory(gt: list[tuple[float, Pose]], seed: int,
                              vel_noise_std: float = 0.02,
                              yaw_drift_rate: float = 0.002,
                              rate: float = 50.0) -> list[tuple[float, Pose]]:
    """Wheel-inertial odometry analog: planar body velocity plus noise and a
    constant yaw-rate drift, integrated from the true start pose."""
    rng = np.random.default_rng(seed)
    t0, pose0 = gt[0]
    t_end = gt[-1][0]
    times = np.array([t for t, _ in gt])
    positions = np.array([p.translation for _, p in gt])
    yaws = np.unwrap([np.arctan2(p.rotation[1, 0], p.rotation[0, 0])
                      for _, p in gt])
    dt = 1.0 / rate
    out = [(t0, pose0)]
    yaw = yaws[0]
    p = pose0.translation.copy()
    t = t0
    while t + dt <= t_end:
        # true planar velocity in body frame
        i = min(np.searchsorted(times, t), len(times) - 2)
        v_w = (positions[i + 1] - positions[i]) / max(times[i + 1] - times[i], 1e-9)
        yaw_true_rate = (yaws[i + 1] - yaws[i]) / max(times[i + 1] - times[i], 1e-9)
        v_b = rot_z(yaw).T @ v_w
        v_b[2] = 0.0
        v_b[:2] += rng.normal(0, vel_noise_std, 2)
        yaw += (yaw_true_rate + yaw_drift_rate
                + rng.normal(0, 0.001)) * dt
        p = p + rot_z(yaw) @ v_b * dt
        t += dt
        out.append((t, Pose(rot_z(yaw), p.copy(), "W", "B")))
    return out


# --------------------------------------------------------------------- worlds


def _clutter(rng: np.random.Generator, region_min, region_max, n: int,
             z_floor: float = 0.0) -> list[Patch]:
    patches = []
    lo = np.asarray(region_min, float)
    hi = np.asarray(region_max, float)
    for _ in range(n):
        size = rng.uniform(0.4, 1.2, 3)
        center = rng.uniform(lo, hi)
        center[2] = z_floor + size[2] / 2
        patches.extend(box(center, size))
    return patches


def corridor_world(rng: np.random.Generator, length=36.0, width=3.0,
                   height=2.5, clutter_depth=5.0, n_clutter=7) -> WorldModel:
    patches = room([length / 2, 0, height / 2], [length, width, height])
    patches += _clutter(rng, [1.0, -width / 2 + 0.5, 0],
                        [1.0 + clutter_depth, width / 2 - 0.5, 0], n_clutter)
    patches += _clutter(rng, [length - 1.0 - clutter_depth, -width / 2 + 0.5, 0],
                        [length - 1.0, width / 2 - 0.5, 0], n_clutter)
    return WorldModel(patches)


def intersection_world(rng: np.random.Generator, arm=16.0, width=3.0,
                       height=2.5) -> WorldModel:
    """Two bare corridors crossing at the origin (plus-shaped)."""
    w = width / 2
    patches = []
    # x-corridor walls, interrupted at the junction
    for sign in (+1, -1):
        y = sign * w
        e_in = np.array([0, -sign, 0])      # normal pointing into corridor
        for x0, x1 in ((-arm, -w), (w, arm)):
            patches.append(Patch([x0, y, 0], [x1 - x0, 0, 0], [0, 0, height])
                           if sign > 0 else
                           Patch([x0, y, 0], [0, 0, height], [x1 - x0, 0, 0]))
    # y-corridor walls
    for sign in (+1, -1):
        x = sign * w
        for y0, y1 in ((-arm, -w), (w, arm)):
            patches.append(Patch([x, y0, 0], [0, 0, height], [0, y1 - y0, 0])
                           if sign > 0 else
                           Patch([x, y0, 0], [0, y1 - y0, 0], [0, 0, height]))
    # floor and ceiling over the whole plus shape
    for x0, x1, y0, y1 in ((-arm, arm, -w, w), (-w, w, -arm, -w), (-w, w, w, arm)):
        patches.append(Patch([x0, y0, 0], [x1 - x0, 0, 0], [0, y1 - y0, 0]))
        patches.append(Patch([x0, y0, height], [0, y1 - y0, 0], [x1 - x0, 0, 0]))
    # end caps
    patches.append(Patch([-arm, -w, 0], [0, 0, height], [0, width, 0]))
    patches.append(Patch([arm, -w, 0], [0, width, 0], [0, 0, height]))
    patches.append(Patch([-w, -arm, 0], [width, 0, 0], [0, 0, height]))
    patches.append(Patch([-w, arm, 0], [0, 0, height], [width, 0, 0]))
    return WorldModel(patches)


def cluttered_room_world(rng: np.random.Generator, size=10.0,
                         height=3.0, n_clutter=10) -> WorldModel:
    patches = room([0, 0, height / 2], [size, size, height])
    patches += _clutter(rng, [-size / 2 + 1, -size / 2 + 1, 0],
                        [size / 2 - 1, size / 2 - 1, 0], n_clutter)
    return WorldModel(patches)


def office_loop_world(rng: np.random.Generator, side=24.0, width=3.0,
                      height=2.5, n_clutter=5) -> WorldModel:
    """Square loop of corridors; the first leg (along +x at y=0) is bare,
    the other legs carry clutter."""
    w = width
    patches = []

    def straight(p0, p1, axis):
        """Corridor segment walls+floor+ceiling from p0 to p1 along axis."""
        p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
        L = p1 - p0
        other = np.array([0, 1, 0]) if axis == 0 else np.array([1, 0, 0])
        c0 = p0 - other * w / 2
        seg = []
        seg.append(Patch(c0, L, other * w))                         # floor
        seg.append(Patch(c0 + [0, 0, height], other * w, L))        # ceiling
        seg.append(Patch(c0, [0, 0, height], L))                    # one wall
        seg.append(Patch(c0 + other * w, L, [0, 0, height]))        # other wall
        return seg

    patches += straight([0, 0, 0], [side, 0, 0], 0)          # bare first leg
    patches += straight([side, 0, 0], [side, side, 0], 1)
    patches += straight([side, side, 0], [0, side, 0], 0)
    patches += straight([0, side, 0], [0, 0, 0], 1)
    for leg_min, leg_max in (
            ([side - w / 2 + 0.3, 2, 0], [side + w / 2 - 0.3, side - 2, 0]),
            ([2, side - w / 2 + 0.3, 0], [side - 2, side + w / 2 - 0.3, 0]),
            ([-w / 2 + 0.3, 2, 0], [w / 2 - 0.3, side - 2, 0])):
        patches += _clutter(rng, leg_min, leg_max, n_clutter)
    # corner clutter anchors the turns (and the start of the bare leg)
    for corner in ([1.5, 0, 0], [side, 1.5, 0], [side - 1.5, side, 0], [0, side - 1.5, 0]):
        patches += _clutter(rng, np.asarray(corner) - 0.8,
                            np.asarray(corner) + 0.8, 2)
    return WorldModel(patches)


# -------------------------------------------------------------------- presets


@dataclass
class Preset:
    name: str
    world: WorldModel
    traj: TrajectorySpec
    lidar: LidarModel
    imu_noise: ImuNoiseParams
    imu_bias: ImuBias
    true_extrinsics: Pose
    imu_rate: float = 200.0
    # bias repeatability (accel, gyro): the spread the biases are drawn from
    imu_bias_std: tuple = (0.02, 0.002)


PRESET_NAMES = ("corridor", "corridor-noisy-imu", "intersection",
                "calib-offset", "office-loop", "room", "stationary")


def _flat_start(times, pos, yaws):
    """Insert coincident knots inside an initial hold so the clamped spline
    stays exactly stationary there; two knots alone would let it bow, and a
    moving start corrupts the gravity-based attitude bootstrap."""
    t0, t1 = times[0], times[1]
    extra = [t0 + (t1 - t0) / 3.0, t0 + 2.0 * (t1 - t0) / 3.0]
    times = [times[0], *extra, *times[1:]]
    pos = [pos[0], pos[0], pos[0], *pos[1:]]
    yaws = [yaws[0], yaws[0], yaws[0], *yaws[1:]]
    return times, pos, yaws


def make_preset(name: str, seed: int) -> Preset:
    rng = np.random.default_rng(seed)
    identity = Pose.identity()
    noise = ImuNoiseParams()
    bias = ImuBias(accel_bias=rng.normal(0, 0.02, 3),
                   gyro_bias=rng.normal(0, 0.002, 3))
    if name in ("corridor", "corridor-noisy-imu"):
        world = corridor_world(rng)
        times = [0.0, 2.0, 10.0, 26.0, 34.0]
        xs = [2.0, 2.0, 10.0, 26.0, 34.0]
        times, pos, yaws = _flat_start(times, [[x, 0.0, 1.0] for x in xs],
                                       [0.0] * len(times))
        traj = TrajectorySpec(times, pos, yaws)
        bias_std = (0.02, 0.002)
        if name == "corridor-noisy-imu":
            noise = ImuNoiseParams(accel_noise_density=8e-3,
                                   gyro_noise_density=8e-4)
            bias_std = (0.05, 0.005)
            bias = ImuBias(accel_bias=rng.normal(0, bias_std[0], 3),
                           gyro_bias=rng.normal(0, bias_std[1], 3))
        lidar = LidarModel(max_range=8.0, range_noise_std=0.02)
        return Preset(name, world, traj, lidar, noise, bias, identity,
                      imu_bias_std=bias_std)
    if name == "intersection":
        world = intersection_world(rng)
        times = [0.0, 2.0, 9.0, 16.0, 23.0]
        xs = [-14.0, -14.0, -5.0, 5.0, 14.0]
        times, pos, yaws = _flat_start(times, [[x, 0.0, 1.0] for x in xs],
                                       [0.0] * len(times))
        traj = TrajectorySpec(times, pos, yaws)
        lidar = LidarModel(max_range=8.0, range_noise_std=0.02)
        return Preset(name, world, traj, lidar, noise, bias, identity)
    if name == "calib-offset":
        world = cluttered_room_world(rng)
        # oscillating yaw rate: a constant-rate turn would let the accel
        # bias absorb the lever-arm term and hide the extrinsic offset
        tm = np.linspace(0.0, 28.0, 29)
        yaw = 1.5 * np.sin(2 * np.pi * tm / 8.0)
        angle = 2 * np.pi * tm / 14.0
        pos = np.stack([1.8 * np.cos(angle), 1.44 * np.sin(2 * angle),
                        np.full_like(tm, 1.2)], axis=1)
        # stationary settle so the gravity bootstrap sees pure gravity;
        # several coincident knots keep the spline flat over the hold
        hold = np.array([0.0, 0.5, 1.0, 1.5])
        t = np.concatenate([hold, tm + 2.0])
        pos = np.vstack([np.repeat(pos[:1], len(hold), axis=0), pos])
        yaw = np.concatenate([np.zeros(len(hold)), yaw])
        traj = TrajectorySpec(t, pos, yaw)
        lidar = LidarModel(max_range=12.0, range_noise_std=0.005)
        extr = Pose(np.eye(3), [0.0, 0.1, 0.0], "B", "L")
        return Preset(name, world, traj, lidar, noise, bias, extr)
    if name == "office-loop":
        world = office_loop_world(rng)
        side = 24.0
        wp = [
            (0.0, [1.5, 0.0, 1.0], 0.0),
            (2.0, [1.5, 0.0, 1.0], 0.0),
            (22.0, [side - 1.0, 0.0, 1.0], 0.0),
            (26.0, [side, 1.5, 1.0], np.pi / 2),
            (44.0, [side, side - 1.5, 1.0], np.pi / 2),
            (48.0, [side - 1.5, side, 1.0], np.pi),
            (66.0, [1.5, side, 1.0], np.pi),
            (70.0, [0.0, side - 1.5, 1.0], 3 * np.pi / 2),
            (88.0, [0.0, 1.5, 1.0], 3 * np.pi / 2),
            (91.0, [1.0, 0.3, 1.0], 2 * np.pi),
        ]
        times, pos, yaws = _flat_start([w[0] for w in wp],
                                       [w[1] for w in wp],
                                       [w[2] for w in wp])
        traj = TrajectorySpec(times, pos, yaws)
        lidar = LidarModel(max_range=8.0, range_noise_std=0.02)
        return Preset(name, world, traj, lidar, noise, bias, identity)
    if name == "room":
        world = cluttered_room_world(rng)
        times = [0.0, 2.0, 6.0, 10.0, 14.0, 18.0]
        pos = [[-2, -2, 1.2], [-2, -2, 1.2], [2, -2, 1.2], [2, 2, 1.2],
               [-2, 2, 1.2], [-2, -2, 1.2]]
        yaws = [0, 0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi]
        times, pos, yaws = _flat_start(times, pos, yaws)
        traj = TrajectorySpec(times, pos, yaws)
        lidar = LidarModel(max_range=12.0, range_noise_std=0.01)
        return Preset(name, world, traj, lidar, noise, bias, identity)
    if name == "stationary":
        world = cluttered_room_world(rng)
        traj = TrajectorySpec([0.0, 10.0], [[0, 0, 1.2], [0, 0, 1.2]],
                              [0.0, 0.0])
        lidar = LidarModel(max_range=12.0, range_noise_std=0.01)
        return Preset(name, world, traj, lidar, noise, bias, identity)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


# ------------------------------------------------------------------- datasets


def generate_dataset(preset: Preset, seed: int, out_dir: str) -> str:
    """Write world.json, calib.txt, imu.csv, sensor.yaml, ground_truth.csv,
    wheel.csv and scans/.

    Deterministic given (preset, seed).
    """
    rng = np.random.default_rng(seed + 1)
    os.makedirs(os.path.join(out_dir, "scans"), exist_ok=True)
    preset.world.to_json(os.path.join(out_dir, "world.json"))

    q = rot_to_quat(preset.true_extrinsics.rotation)
    tx, ty, tz = preset.true_extrinsics.translation
    with open(os.path.join(out_dir, "calib.txt"), "w") as f:
        f.write(f"{tx:.9f} {ty:.9f} {tz:.9f} "
                f"{q[0]:.9f} {q[1]:.9f} {q[2]:.9f} {q[3]:.9f}\n")

    samples = simulate_imu(preset.traj, preset.imu_noise, preset.imu_bias,
                           preset.imu_rate, rng)
    save_imu_csv(samples, os.path.join(out_dir, "imu.csv"))

    # sensor datasheet: consumers weight the IMU according to these
    with open(os.path.join(out_dir, "sensor.yaml"), "w") as f:
        f.write("imu:\n"
                f"  accel_noise_density: {preset.imu_noise.accel_noise_density}\n"
                f"  gyro_noise_density: {preset.imu_noise.gyro_noise_density}\n"
                f"  accel_bias_std: {preset.imu_bias_std[0]}\n"
                f"  gyro_bias_std: {preset.imu_bias_std[1]}\n"
                f"  rate: {preset.imu_rate}\n")

    gt_times = np.arange(preset.traj.times[0], preset.traj.times[-1], 0.01)
    gt = [(float(t), preset.traj.pose(float(t))) for t in gt_times]
    write_tum(os.path.join(out_dir, "ground_truth.csv"), gt)
    # exact floats: the pipeline picks the first wheel pose at or after each
    # scan time, and rounded times would move that pick where the two meet
    write_tum(os.path.join(out_dir, "wheel.csv"),
              wheel_inertial_trajectory(gt, WHEEL_SEED), exact=True)

    scan_times = np.arange(preset.traj.times[0], preset.traj.times[-1],
                           1.0 / preset.lidar.rate)
    for t in scan_times:
        pose_WB = preset.traj.pose(float(t))
        pose_WL = Pose(pose_WB.rotation @ preset.true_extrinsics.rotation,
                       pose_WB.translation
                       + pose_WB.rotation @ preset.true_extrinsics.translation)
        cloud = simulate_scan(preset.world, pose_WL, preset.lidar, rng,
                              timestamp=float(t))
        save_csv(cloud, os.path.join(out_dir, "scans", f"{int(round(t * 1e9))}.csv"))
    return out_dir
