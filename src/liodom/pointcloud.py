"""Point-cloud container, spatial index, normal estimation, downsampling."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


class EmptyCloudError(ValueError):
    pass


@dataclass
class PointCloud:
    """Timestamped 3D points in the lidar frame, with optional unit normals.

    `valid` marks points whose normals are usable; points with degenerate
    neighborhoods are flagged invalid and skipped by ICP and the Hessian.
    """

    timestamp: float
    points: np.ndarray                      # (N, 3)
    normals: np.ndarray | None = None       # (N, 3) unit vectors
    valid: np.ndarray | None = None         # (N,) bool, defaults to all True

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud contains NaN/Inf coordinates")
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
            if len(self.normals) != len(self.points):
                raise ValueError("normals must align 1:1 with points")
        if self.valid is None:
            self.valid = np.ones(len(self.points), dtype=bool)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def valid_subset(self) -> "PointCloud":
        """Cloud restricted to points with usable normals."""
        m = self.valid
        normals = self.normals[m] if self.normals is not None else None
        return PointCloud(self.timestamp, self.points[m], normals)


class SpatialIndex:
    """k-d tree over a cloud. Ties on distance break toward the smaller index."""

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise EmptyCloudError("cannot index an empty cloud")
        self.cloud = cloud
        self._tree = cKDTree(cloud.points)

    def knn(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors of one or many query points.

        Returns (distances, indices), each (k,) or (M, k); k is clamped to
        the cloud size.
        """
        k = min(k, len(self.cloud))
        d, i = self._tree.query(np.asarray(query, dtype=float), k=k)
        if k == 1:
            d, i = np.atleast_1d(d)[..., None], np.atleast_1d(i)[..., None]
            d, i = d.reshape(*np.shape(query)[:-1], 1), i.reshape(*np.shape(query)[:-1], 1)
        # stable re-sort so equal distances come out in index order
        order = np.lexsort((i, d), axis=-1)
        return np.take_along_axis(d, order, -1), np.take_along_axis(i, order, -1)

    def nearest(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d, i = self.knn(query, 1)
        return d[..., 0], i[..., 0]


def estimate_normals(cloud: PointCloud, k: int = 10,
                     sensor_origin: np.ndarray | None = None) -> PointCloud:
    """Plane-fit normals from the k-neighborhood covariance.

    The normal is the eigenvector of the smallest covariance eigenvalue,
    signed to face the sensor origin. Neighborhoods that are rank-deficient
    (near-collinear) yield an invalid flag instead of a normal.
    """
    if len(cloud) < k or k < 3:
        raise ValueError(f"need at least k={k} >= 3 points, have {len(cloud)}")
    origin = np.zeros(3) if sensor_origin is None else np.asarray(sensor_origin, float)
    index = SpatialIndex(cloud)
    _, nbr = index.knn(cloud.points, k)
    neigh = cloud.points[nbr]                       # (N, k, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    w, v = np.linalg.eigh(cov)                      # ascending eigenvalues
    normals = v[:, :, 0]
    # collinear neighborhood: two vanishing eigenvalues relative to the largest
    scale = np.maximum(w[:, 2], 1e-30)
    valid = (w[:, 1] / scale) > 1e-8
    to_sensor = origin - cloud.points
    flip = np.einsum("ni,ni->n", normals, to_sensor) < 0
    normals[flip] *= -1.0
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.maximum(norms, 1e-30)
    return PointCloud(cloud.timestamp, cloud.points.copy(), normals, valid)


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Centroid per occupied voxel cell; output order follows first occurrence."""
    if voxel <= 0:
        raise ValueError("voxel size must be positive")
    if len(cloud) == 0:
        return PointCloud(cloud.timestamp, np.zeros((0, 3)))
    cells = np.floor(cloud.points / voxel).astype(np.int64)
    _, first, inverse = np.unique(cells, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    inverse = rank[inverse]
    n_cells = len(first)
    sums = np.zeros((n_cells, 3))
    counts = np.zeros(n_cells)
    np.add.at(sums, inverse, cloud.points)
    np.add.at(counts, inverse, 1.0)
    return PointCloud(cloud.timestamp, sums / counts[:, None])


def save_csv(cloud: PointCloud, path: str) -> None:
    """Write `x,y,z[,nx,ny,nz]` rows with header."""
    if cloud.has_normals:
        header = "x,y,z,nx,ny,nz"
        data = np.hstack([cloud.points, cloud.normals])
    else:
        header = "x,y,z"
        data = cloud.points
    np.savetxt(path, data, fmt="%.9f", delimiter=",", header=header, comments="")


def load_csv(path: str, timestamp: float | None = None) -> PointCloud:
    """Read a cloud written by save_csv; timestamp defaults to the filename
    convention `<t_ns>.csv` (nanoseconds)."""
    if timestamp is None:
        stem = os.path.splitext(os.path.basename(path))[0]
        timestamp = int(stem) * 1e-9
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if len(header) >= 6:
        return PointCloud(timestamp, data[:, :3], data[:, 3:6])
    return PointCloud(timestamp, data[:, :3])
