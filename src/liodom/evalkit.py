"""TUM trajectory files and their evaluation: association, RMSE, percent
drift, kappa summaries."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, compose, quat_to_rot, rot_to_quat


def load_tum(path: str) -> list[tuple[float, Pose]]:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vals = [float(x) for x in line.split()]
            t, tx, ty, tz, qx, qy, qz, qw = vals
            rows.append((t, Pose(quat_to_rot(np.array([qx, qy, qz, qw])),
                                 [tx, ty, tz])))
    return rows


def write_tum(path: str, rows: list[tuple[float, Pose]],
              exact: bool = False) -> None:
    """TUM rows `t tx ty tz qx qy qz qw` with 9 decimals, or, if exact, with
    the shortest text that reads back as the same float."""
    fmt = repr if exact else "{:.9f}".format
    with open(path, "w") as f:
        for t, pose in rows:
            vals = (t, *pose.translation, *rot_to_quat(pose.rotation))
            f.write(" ".join(fmt(float(v)) for v in vals) + "\n")


@dataclass
class TrajectoryEval:
    rmse_position: float
    rmse_attitude: float
    percent_drift: float
    path_length: float
    duration: float
    times: np.ndarray
    position_errors: np.ndarray      # per-pair Euclidean error
    attitude_errors: np.ndarray      # per-pair geodesic angle
    rpy_errors: np.ndarray           # (N, 3) roll/pitch/yaw breakdown


def associate(est: list[tuple[float, Pose]], gt: list[tuple[float, Pose]],
              max_dt: float = 0.02) -> list[tuple[Pose, Pose, float]]:
    """Nearest-timestamp pairing within max_dt; one pair per gt sample."""
    if not est or not gt:
        raise ValueError("empty trajectory")
    est_t = np.array([t for t, _ in est])
    pairs = []
    for t, gpose in gt:
        i = int(np.clip(np.searchsorted(est_t, t), 1, len(est_t) - 1))
        i = i if abs(est_t[i] - t) < abs(est_t[i - 1] - t) else i - 1
        if abs(est_t[i] - t) <= max_dt:
            pairs.append((est[i][1], gpose, t))
    if not pairs:
        raise ValueError("no overlapping timestamps within max_dt")
    return pairs


def _rotation_angle(R: np.ndarray) -> float:
    c = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    return float(np.arccos(c))


def _rpy(R: np.ndarray) -> np.ndarray:
    """ZYX roll/pitch/yaw of a rotation matrix."""
    pitch = -np.arcsin(np.clip(R[2, 0], -1.0, 1.0))
    roll = np.arctan2(R[2, 1], R[2, 2])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    return np.array([roll, pitch, yaw])


def evaluate(pairs: list[tuple[Pose, Pose, float]],
             align: str = "none") -> TrajectoryEval:
    """Position/attitude RMSE and percent drift over associated pairs.

    align='rigid-start' pre-composes the estimate so its first pose matches
    the ground truth's first pose.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two pairs")
    if align not in ("none", "rigid-start"):
        raise ValueError(f"unknown alignment {align!r}")
    if align == "rigid-start":
        e0, g0, _ = pairs[0]
        T = compose(g0, e0.inverse())
        pairs = [(compose(T, e), g, t) for e, g, t in pairs]

    times = np.array([t for _, _, t in pairs])
    pe = np.array([np.linalg.norm(e.translation - g.translation)
                   for e, g, _ in pairs])
    ae = np.array([_rotation_angle(g.rotation.T @ e.rotation)
                   for e, g, _ in pairs])
    rpy = np.array([_rpy(g.rotation.T @ e.rotation) for e, g, _ in pairs])
    gt_pos = np.array([g.translation for _, g, _ in pairs])
    path_length = float(np.sum(np.linalg.norm(np.diff(gt_pos, axis=0), axis=1)))
    rmse_p = float(np.sqrt(np.mean(pe**2)))
    rmse_a = float(np.sqrt(np.mean(ae**2)))
    drift = 100.0 * rmse_p / path_length if path_length > 0 else float("nan")
    return TrajectoryEval(rmse_p, rmse_a, drift, path_length,
                          float(times[-1] - times[0]), times, pe, ae, rpy)


def write_eval_csv(ev: TrajectoryEval, path: str) -> None:
    """Summary row using the t(m) / t(%) / R(rad) reporting convention."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_m", "t_pct", "R_rad", "path_length_m", "duration_s"])
        w.writerow([f"{ev.rmse_position:.6f}", f"{ev.percent_drift:.6f}",
                    f"{ev.rmse_attitude:.6f}", f"{ev.path_length:.6f}",
                    f"{ev.duration:.6f}"])


def write_errors_csv(ev: TrajectoryEval, path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["timestamp", "position_error", "attitude_error",
                    "roll_error", "pitch_error", "yaw_error"])
        for t, pe, ae, rpy in zip(ev.times, ev.position_errors,
                                  ev.attitude_errors, ev.rpy_errors):
            w.writerow([f"{t:.9f}", f"{pe:.9f}", f"{ae:.9f}",
                        f"{rpy[0]:.9f}", f"{rpy[1]:.9f}", f"{rpy[2]:.9f}"])


def summarize_observability(log: dict[str, np.ndarray], threshold: float = 10.0,
                            n_segments: int = 3) -> list[dict]:
    """Per-segment kappa statistics over equal-duration slices of the log."""
    t = log["timestamp"]
    kappa = log["kappa_tt"]
    if len(t) == 0:
        raise ValueError("empty observability log")
    edges = np.linspace(t[0], t[-1] + 1e-9, n_segments + 1)
    out = []
    for s in range(n_segments):
        m = (t >= edges[s]) & (t < edges[s + 1])
        if not m.any():
            continue
        k = kappa[m]
        out.append({
            "segment": s,
            "t_start": float(edges[s]),
            "t_end": float(edges[s + 1]),
            "kappa_min": float(np.min(k)),
            "kappa_max": float(np.max(k)),
            "kappa_mean": float(np.mean(k[np.isfinite(k)]))
            if np.isfinite(k).any() else float("inf"),
            "frac_above_threshold": float(np.mean(k > threshold)),
        })
    return out


def write_obs_summary_csv(segments: list[dict], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(segments[0].keys()))
        w.writeheader()
        for row in segments:
            w.writerow(row)
