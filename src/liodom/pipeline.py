"""End-to-end run: dataset in, trajectories and logs out.

The run is two stages. The front-end (load, downsample, normals,
observability) reads no smoother state, so it runs on a worker thread one
scan ahead of the back-end (preintegration, scan-to-scan ICP, the fixed-lag
smoother), which runs on the calling thread; the dataset's wheel-inertial
odometry, when it has one, and the switching supervisor produce the unified
output alongside the raw estimator trajectories.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import replace

import numpy as np

from .config import PipelineConfig
from .evalkit import load_tum, write_tum
from .geometry import Pose, compose, rot_z, so3_exp
from .observability import ObservabilityLog, ObservabilityReport, assess
from .pointcloud import PointCloud, estimate_normals, load_csv, voxel_downsample
from .preintegration import ImuSample, integrate_window, load_imu_csv
from .scan_matching import Gap, gravity_align_guess, match
from .smoother import FixedLagSmoother
from .supervisor import SourceStatus, Supervisor


class DatasetError(ValueError):
    pass


def attitude_from_gravity(mean_accel: np.ndarray) -> np.ndarray:
    """Zero-yaw body attitude whose gravity reaction matches the mean
    accelerometer reading."""
    u = mean_accel / np.linalg.norm(mean_accel)
    ez = np.array([0.0, 0.0, 1.0])
    axis = np.cross(u, ez)
    s = np.linalg.norm(axis)
    c = float(u @ ez)
    if s < 1e-12:
        return np.eye(3) if c > 0 else rot_z(np.pi) @ np.diag([1.0, -1.0, -1.0])
    angle = np.arctan2(s, c)
    return so3_exp(axis / s * angle)


def load_dataset(dataset_dir: str):
    """(scan paths in time order, IMU samples, wheel-inertial poses or None
    when the dataset has no wheel.csv)."""
    scans_dir = os.path.join(dataset_dir, "scans")
    imu_path = os.path.join(dataset_dir, "imu.csv")
    wheel_path = os.path.join(dataset_dir, "wheel.csv")
    if not (os.path.isdir(scans_dir) and os.path.isfile(imu_path)):
        raise DatasetError(f"not a dataset directory: {dataset_dir}")
    scan_files = sorted(os.listdir(scans_dir), key=lambda s: int(s.split(".")[0]))
    if not scan_files:
        raise DatasetError("dataset has no scans")
    scans = [os.path.join(scans_dir, f) for f in scan_files]
    imu = load_imu_csv(imu_path)
    wheel = load_tum(wheel_path) if os.path.isfile(wheel_path) else None
    return scans, imu, wheel


def _preprocess(cloud: PointCloud, cfg: PipelineConfig) -> PointCloud | None:
    if cfg.frontend.voxel_size > 0:
        cloud = voxel_downsample(cloud, cfg.frontend.voxel_size)
    if len(cloud) < max(cfg.frontend.normal_k, 20):
        return None
    return estimate_normals(cloud, cfg.frontend.normal_k)


def _front_end_scan(path: str, cfg: PipelineConfig, threshold: float
                    ) -> tuple[float, PointCloud | None,
                               ObservabilityReport | None]:
    """One scan through the front-end stage: its time, its preprocessed
    cloud and that cloud's observability report (both None when the scan
    has too few points to use)."""
    t = int(os.path.basename(path).split(".")[0]) * 1e-9
    raw = load_csv(path, timestamp=t)
    cloud = _preprocess(raw, cfg) if len(raw) else None
    return t, cloud, None if cloud is None else assess(cloud, threshold)


def front_end(scans: list[str], cfg: PipelineConfig, threshold: float):
    """Yield `_front_end_scan` of each scan path in order.

    One worker thread runs the stage one scan ahead: scan k+1 is submitted
    only once scan k is taken, so at most one scan is in flight while the
    caller works on the one before it. The stage reads nothing the caller
    writes, so its results do not depend on the scheduling. Close the
    generator (`contextlib.closing`) so that an early exit waits for the
    scan in flight, drops its result and ends the thread with the run; an
    error in the stage is raised to the caller when it takes that scan.
    """
    with ThreadPoolExecutor(1, thread_name_prefix="liodom-front-end") as worker:
        ahead = worker.submit(_front_end_scan, scans[0], cfg, threshold)
        for path in scans[1:]:
            scan = ahead.result()
            ahead = worker.submit(_front_end_scan, path, cfg, threshold)
            yield scan
        yield ahead.result()


def _imu_slice(imu: list[ImuSample], times: np.ndarray,
               t0: float, t1: float) -> list[ImuSample]:
    i0 = max(int(np.searchsorted(times, t0, side="right")) - 1, 0)
    i1 = int(np.searchsorted(times, t1, side="left"))
    return imu[i0:i1]


def _apply_sensor_spec(dataset_dir: str, cfg: PipelineConfig) -> PipelineConfig:
    """cfg with the dataset's IMU datasheet noise densities and bias priors
    when provided; cfg itself is left unchanged."""
    path = os.path.join(dataset_dir, "sensor.yaml")
    if not os.path.isfile(path):
        return cfg
    import yaml
    try:
        with open(path) as f:
            spec = yaml.safe_load(f) or {}
        imu = spec.get("imu", {}) if isinstance(spec, dict) else None
        if not isinstance(imu, dict):
            raise ValueError("expected a mapping with an 'imu' mapping")
        noise = {k: float(imu[k]) for k in
                 ("accel_noise_density", "gyro_noise_density") if k in imu}
        priors = {k: float(imu[k]) for k in
                  ("accel_bias_std", "gyro_bias_std") if k in imu}
        return replace(cfg, imu=replace(cfg.imu, **noise),
                       priors=replace(cfg.priors, **priors))
    except (yaml.YAMLError, TypeError, ValueError) as e:
        raise DatasetError(f"malformed sensor.yaml: {e}") from e


def run_pipeline(dataset_dir: str, cfg: PipelineConfig, out_dir: str,
                 supervisor_on: bool = True) -> None:
    scans, imu, wheel = load_dataset(dataset_dir)
    os.makedirs(out_dir, exist_ok=True)
    cfg = _apply_sensor_spec(dataset_dir, cfg)
    imu_times = np.array([s.timestamp for s in imu])

    t_first = int(os.path.basename(scans[0]).split(".")[0]) * 1e-9
    boot = [s.accel for s in imu if s.timestamp <= t_first + 0.25]
    R0 = attitude_from_gravity(np.mean(boot, axis=0)) if boot else np.eye(3)
    init_extr = Pose(rot_z(cfg.extrinsics.yaw),
                     np.asarray(cfg.extrinsics.translation, float), "B", "L")

    sm = FixedLagSmoother(cfg.window, cfg.imu, init_extr, cfg.priors, R0)
    obs_log = ObservabilityLog()
    sup = Supervisor(cfg.supervisor.hold_time)
    lio_traj, s2s_traj, unified, extr_trace = [], [], [], []

    if wheel:
        wheel_times = np.array([t for t, _ in wheel])

    def wheel_pose(t: float) -> Pose:
        i = int(np.clip(np.searchsorted(wheel_times, t), 0, len(wheel) - 1))
        return wheel[i][1]

    prev_cloud = None
    prev_t = None
    T_WL_s2s = compose(Pose(R0, np.zeros(3), "W", "B"), init_extr)
    prio = cfg.supervisor.priorities

    with closing(front_end(scans, cfg, cfg.observability.threshold)) as stage:
        for t, cloud, report in stage:
            warning = report is None or report.warning
            if report is not None:
                obs_log.add(report)

            if prev_t is None:
                sm.add_keyframe(t, None, None)
                sm.optimize()
            else:
                delta = integrate_window(_imu_slice(imu, imu_times, prev_t, t),
                                         prev_t, t, sm.latest.bias, cfg.imu)
                extr = sm.extrinsics_estimate()
                init = gravity_align_guess(delta.dR, extr, np.eye(3))
                if cloud is not None and prev_cloud is not None:
                    meas = match(cloud, prev_cloud, init, cfg.icp)
                else:
                    meas = Gap(prev_t, t, "missing scan")
                sm.add_keyframe(t, delta, meas)
                sm.optimize()
                sm.marginalize()

                if isinstance(meas, Gap) or not meas.converged:
                    T_WL_s2s = compose(T_WL_s2s, init)
                else:
                    T_WL_s2s = compose(T_WL_s2s, meas.transform)

            node = sm.latest
            lio_pose = Pose(node.R_WB, node.p_WB, "W", "B")
            lio_traj.append((t, lio_pose))
            extr_trace.append((t, node.extrinsics_BL()))
            s2s_traj.append((t, compose(T_WL_s2s, init_extr.inverse())))

            if supervisor_on and wheel:
                sup.report(SourceStatus("lio", t, 10.0,
                                        observability_warning=warning,
                                        input_health=sm.healthy,
                                        priority=prio.get("lio", 0)))
                sup.report(SourceStatus("wheel", t, 50.0,
                                        priority=prio.get("wheel", 1)))
                unified.append((t, sup.update(t, {"lio": lio_pose,
                                                  "wheel": wheel_pose(t)})))
            else:
                unified.append((t, lio_pose))

            prev_cloud, prev_t = cloud, t

    _write_outputs(out_dir, lio_traj, s2s_traj, wheel, unified, extr_trace,
                   obs_log, sup)


def _write_outputs(out_dir, lio, s2s, wheel, unified, extr_trace, obs_log,
                   sup) -> None:
    from .geometry import rot_to_quat
    write_tum(os.path.join(out_dir, "trajectory_lio.txt"), lio)
    write_tum(os.path.join(out_dir, "trajectory_scan_to_scan.txt"), s2s)
    if wheel:
        write_tum(os.path.join(out_dir, "trajectory_wheel.txt"), wheel)
    write_tum(os.path.join(out_dir, "trajectory_unified.txt"), unified)
    obs_log.write(os.path.join(out_dir, "observability.csv"))
    sup.write_switch_log(os.path.join(out_dir, "switches.csv"))
    with open(os.path.join(out_dir, "extrinsics.csv"), "w") as f:
        f.write("timestamp,tx,ty,tz,qx,qy,qz,qw\n")
        for t, pose in extr_trace:
            q = rot_to_quat(pose.rotation)
            tx, ty, tz = pose.translation
            f.write(f"{t:.9f},{tx:.9f},{ty:.9f},{tz:.9f},"
                    f"{q[0]:.9f},{q[1]:.9f},{q[2]:.9f},{q[3]:.9f}\n")
