"""Point-cloud container, spatial index, normal estimation, downsampling."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

# rows of neighbour queries and plane fits done at a time: bounds the
# (rows, k) neighbour tables and the (rows, k, 3) temporaries that the
# gather and centring make
CHUNK_ROWS = 512


class EmptyCloudError(ValueError):
    pass


@dataclass
class PointCloud:
    """Timestamped 3D points in the lidar frame, with optional unit normals.

    `valid` marks points whose normals are usable; points with degenerate
    neighborhoods are flagged invalid and skipped by ICP and the Hessian.
    `index` is the k-d tree `estimate_normals` built over these points, kept
    so that ICP can match against the cloud without building another.
    """

    timestamp: float
    points: np.ndarray                      # (N, 3)
    normals: np.ndarray | None = None       # (N, 3) unit vectors
    valid: np.ndarray | None = None         # (N,) bool, defaults to all True
    index: SpatialIndex | None = field(default=None, repr=False)

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
        query = np.asarray(query, dtype=float)
        d, i = self._tree.query(query.reshape(-1, 3), k=k)
        d = d.reshape(*query.shape[:-1], k)
        i = i.reshape(*query.shape[:-1], k)
        if k == 1:
            return d, i
        # each row comes sorted by distance; re-sort, stably, only the rows
        # holding equal distances, so those come out in index order
        tied = np.any(d[..., 1:] == d[..., :-1], axis=-1)
        if np.any(tied):
            dt, it = d[tied], i[tied]
            order = np.lexsort((it, dt), axis=-1)
            d[tied] = np.take_along_axis(dt, order, -1)
            i[tied] = np.take_along_axis(it, order, -1)
        return d, i

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
    w, v = _plane_fits(index, k)                    # ascending eigenvalues
    normals = v[:, :, 0]
    # collinear neighborhood: two vanishing eigenvalues relative to the largest
    scale = np.maximum(w[:, 2], 1e-30)
    valid = (w[:, 1] / scale) > 1e-8
    to_sensor = origin - cloud.points
    flip = np.einsum("ni,ni->n", normals, to_sensor) < 0
    normals[flip] *= -1.0
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.maximum(norms, 1e-30)
    return PointCloud(cloud.timestamp, cloud.points.copy(), normals, valid,
                      index)


def _plane_fits(index: SpatialIndex, k: int):
    """Eigen-decomposition of the covariance of each indexed point's k
    nearest neighbours, CHUNK_ROWS rows at a time: each piece's neighbours
    are queried just before it is fitted.

    Every row's query and arithmetic are the same however the rows are
    split, so the result does not depend on CHUNK_ROWS.
    """
    points = index.cloud.points
    w = np.empty((len(points), 3))
    v = np.empty((len(points), 3, 3))
    for start in range(0, len(points), CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        _, nbr = index.knn(points[start:stop], k)
        neigh = np.take(points, nbr, axis=0)                # (n, k, 3)
        centered = neigh - neigh.mean(axis=1, keepdims=True)
        cov = np.einsum("nki,nkj->nij", centered, centered) / nbr.shape[1]
        w[start:stop], v[start:stop] = np.linalg.eigh(cov)
    return w, v


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Centroid per occupied voxel cell; output order follows first occurrence."""
    if voxel <= 0:
        raise ValueError("voxel size must be positive")
    if len(cloud) == 0:
        return PointCloud(cloud.timestamp, np.zeros((0, 3)))
    cells = np.floor(cloud.points / voxel).astype(np.int64)
    # a stable sort brings equal cells together, each run led by the cell's
    # first occurrence; cells are compared per axis, never packed into one
    # key that could overflow
    order = np.lexsort(cells.T)
    sorted_cells = cells[order]
    new = np.r_[True, np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)]
    first = order[new]
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = rank[np.cumsum(new) - 1]
    # bincount adds each cell's points in input order, as a loop would
    n_cells = len(first)
    sums = np.stack([np.bincount(inverse, cloud.points[:, c], n_cells)
                     for c in range(3)], axis=1)
    counts = np.bincount(inverse, minlength=n_cells)
    return PointCloud(cloud.timestamp, sums / counts[:, None])


def save_csv(cloud: PointCloud, path: str) -> None:
    """Write the points as `x,y,z` rows with header: the text of
    `np.savetxt(path, points, fmt="%.9f", delimiter=",", header="x,y,z",
    comments="")`, formatted in one call instead of one per row."""
    text = "x,y,z\n" + ("%.9f,%.9f,%.9f\n" * len(cloud)) \
        % tuple(cloud.points.ravel().tolist())
    with open(path, "w", newline="") as f:
        f.write(text)


def load_csv(path: str, timestamp: float | None = None) -> PointCloud:
    """Read the points, the first three columns, of a cloud written by
    save_csv; timestamp defaults to the filename convention `<t_ns>.csv`
    (nanoseconds)."""
    if timestamp is None:
        stem = os.path.splitext(os.path.basename(path))[0]
        timestamp = int(stem) * 1e-9
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return PointCloud(timestamp, data[:, :3])
