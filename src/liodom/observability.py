"""Geometric observability metric for point-to-plane scan alignment.

The 6x6 Gauss-Newton Hessian of the point-to-plane cost is assembled from
per-point rows [-(p x n), -n]; the condition number of its translational
3x3 block tells how well the scene geometry constrains translation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .pointcloud import PointCloud

EIG_FLOOR_REL = 1e-9   # relative eigenvalue floor for a rank-deficient translational block


class NoValidNormalsError(ValueError):
    pass


@dataclass
class ObservabilityReport:
    eigenvalues_tt: np.ndarray          # sorted descending
    kappa_tt: float                     # >= 1, inf when rank-deficient
    least_observable_direction: np.ndarray
    warning: bool
    timestamp: float


def build_hessian(cloud: PointCloud) -> np.ndarray:
    """A = sum_i H_i^T H_i over points with valid normals."""
    if not cloud.has_normals:
        raise NoValidNormalsError("cloud has no normals")
    c = cloud.valid_subset()
    if len(c) == 0:
        raise NoValidNormalsError("cloud has no valid normals")
    p, n = c.points, c.normals
    cross = np.cross(p, n)
    H = np.hstack([-cross, -n])         # (M, 6)
    return H.T @ H


def condition_number_tt(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Eigen-analysis of the translational block.

    Returns (kappa, eigenvalues descending, eigenvector columns). kappa is
    +inf when the smallest eigenvalue falls under the relative floor.
    """
    w, v = np.linalg.eigh(A[3:, 3:])    # ascending
    w, v = w[::-1], v[:, ::-1]
    lam_max, lam_min = abs(w[0]), abs(w[-1])
    if lam_min < EIG_FLOOR_REL * lam_max or lam_min == 0.0:
        kappa = np.inf
    else:
        kappa = lam_max / lam_min
    return kappa, w, v


def assess(cloud: PointCloud, threshold: float = 10.0) -> ObservabilityReport:
    if threshold <= 1:
        raise ValueError("threshold must exceed 1")
    A = build_hessian(cloud)
    kappa, w, v = condition_number_tt(A)
    return ObservabilityReport(
        eigenvalues_tt=w,
        kappa_tt=kappa,
        least_observable_direction=v[:, -1],
        warning=bool(kappa > threshold),
        timestamp=cloud.timestamp,
    )


OBS_LOG_HEADER = ["timestamp", "kappa_tt", "lambda1", "lambda2", "lambda3",
                  "dirx", "diry", "dirz", "warning"]


class ObservabilityLog:
    """Accumulates per-scan reports and writes the CSV consumed by the
    evaluation kit and the supervisor."""

    def __init__(self):
        self.reports: list[ObservabilityReport] = []

    def add(self, report: ObservabilityReport) -> None:
        self.reports.append(report)

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(OBS_LOG_HEADER)
            for r in self.reports:
                d = r.least_observable_direction
                w.writerow([f"{r.timestamp:.9f}", f"{r.kappa_tt:.9g}",
                            f"{r.eigenvalues_tt[0]:.9g}",
                            f"{r.eigenvalues_tt[1]:.9g}",
                            f"{r.eigenvalues_tt[2]:.9g}",
                            f"{d[0]:.9f}", f"{d[1]:.9f}", f"{d[2]:.9f}",
                            int(r.warning)])


def load_observability_csv(path: str) -> dict[str, np.ndarray]:
    """Read an observability log into column arrays."""
    with open(path) as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"empty observability log: {path}")
    cols = {k: np.array([float(r[k]) for r in rows]) for k in OBS_LOG_HEADER}
    return cols
