"""The per-scan front-end against serial oracles: the k-NN tie contract, the
voxel filter, and outputs that do not depend on the plane-fit chunk size or
on which k-d tree ICP searches."""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from liodom import pointcloud, scan_matching
from liodom.geometry import Pose, so3_exp
from liodom.pointcloud import (PointCloud, SpatialIndex, estimate_normals,
                               voxel_downsample)
from liodom.scan_matching import IcpParams, match


def lattice(n=4):
    g = np.arange(n, dtype=float)
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)


def brute_knn(pts, queries, k):
    """k nearest by distance, equal distances in index order."""
    d = np.linalg.norm(pts[None] - queries[:, None], axis=-1)
    order = np.lexsort((np.broadcast_to(np.arange(len(pts)), d.shape), d),
                       axis=-1)[:, :k]
    return np.take_along_axis(d, order, -1), order


def test_knn_ties_in_some_rows_match_brute_force():
    rng = np.random.default_rng(5)
    pts = lattice()[rng.permutation(64)]
    # lattice queries: one point at distance 0 and whole shells of equal
    # distances (an interior point's 6 at 1; a corner's 3 at 1 and 3 at
    # sqrt 2), so k=7 never cuts a shell; off-lattice queries have no ties
    tied = np.array([[1, 1, 1], [2, 1, 2], [0, 0, 0], [3, 0, 3], [2, 2, 1.0]])
    untied = rng.uniform(0.1, 2.9, size=(6, 3))
    queries = np.vstack([untied[:3], tied, untied[3:]])
    d, i = SpatialIndex(PointCloud(0.0, pts)).knn(queries, 7)
    d_ref, i_ref = brute_knn(pts, queries, 7)
    assert np.array_equal(i, i_ref)
    assert np.allclose(d, d_ref, rtol=0, atol=1e-12)
    has_tie = np.any(d[:, 1:] == d[:, :-1], axis=1)
    assert has_tie.any() and not has_tie.all()


def test_knn_k1_shapes_and_values():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(50, 3))
    index = SpatialIndex(PointCloud(0.0, pts))
    queries = rng.normal(size=(8, 3))
    d_ref, i_ref = brute_knn(pts, queries, 1)

    d, i = index.knn(queries, 1)
    assert d.shape == i.shape == (8, 1)
    assert np.array_equal(i, i_ref)
    assert np.allclose(d, d_ref, rtol=0, atol=1e-12)

    d, i = index.knn(queries[3], 1)
    assert d.shape == i.shape == (1,)
    assert i[0] == i_ref[3, 0]
    assert d[0] == pytest.approx(d_ref[3, 0], abs=1e-12)


def voxel_downsample_unique(cloud, voxel):
    """The voxel filter as it was first written, with np.unique(axis=0) and
    np.add.at: the oracle for the sort-based one."""
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


@settings(deadline=None, max_examples=60)
@given(points=hnp.arrays(np.float64, st.tuples(st.integers(1, 80), st.just(3)),
                         elements=st.floats(-50, 50)),
       duplicates=st.lists(st.integers(0, 10**6), max_size=30),
       voxel=st.sampled_from([1e-6, 0.05, 0.25, 1.0, 7.0]),
       shuffle=st.integers(0, 2**31 - 1))
@example(points=np.random.default_rng(0).uniform(-1e6, 1e6, size=(200, 3)),
         duplicates=list(range(0, 200, 7)), voxel=1e-6, shuffle=1)
def test_voxel_matches_unique_oracle(points, duplicates, voxel, shuffle):
    pts = np.vstack([points, points[np.array(duplicates, int) % len(points)]])
    pts = pts[np.random.default_rng(shuffle).permutation(len(pts))]
    cloud = PointCloud(0.0, pts)
    assert (voxel_downsample(cloud, voxel).points.tobytes()
            == voxel_downsample_unique(cloud, voxel).points.tobytes())


def test_voxel_wide_cloud_matches_unique_oracle():
    """1e-6 m cells over a 2e6 m span: cell indices up to 1e12 per axis,
    whose product overflows any packed int64 key."""
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1e6, 1e6, size=(500, 3))
    pts = np.vstack([pts, pts[::3], pts[:10] + 1e-7])
    cloud = PointCloud(0.0, pts)
    out = voxel_downsample(cloud, 1e-6)
    assert out.points.tobytes() == voxel_downsample_unique(cloud, 1e-6).points.tobytes()
    assert len(out) < len(pts)


def noisy_box(rng, n_per_face=300, half=3.0):
    pts = []
    for axis, offset in [(2, -half), (0, -half), (0, half), (1, -half), (1, half)]:
        p = rng.uniform(-half, half, size=(n_per_face, 3))
        p[:, axis] = offset
        pts.append(p)
    return np.vstack(pts) + rng.normal(scale=0.01, size=(5 * n_per_face, 3))


def test_normals_do_not_depend_on_the_chunk_count(monkeypatch):
    """Normals and validity flags are the same bytes whether the neighbour
    queries and plane fits run in pieces of 512 rows, of 1, of 7 or in one
    piece: both the per-piece k-d tree query and the fits split by row."""
    rng = np.random.default_rng(8)
    pts = noisy_box(rng)
    # a collinear run gives some invalid rows too
    pts = np.vstack([pts, np.stack([np.linspace(5, 6, 40), np.zeros(40),
                                    np.zeros(40)], axis=1)])
    out = []
    for chunk in (512, 1, 7, len(pts) + 1):
        monkeypatch.setattr(pointcloud, "CHUNK_ROWS", chunk)
        out.append(estimate_normals(PointCloud(0.0, pts), k=12))
    assert not out[0].valid.all() and out[0].valid.any()
    for other in out[1:]:
        assert other.normals.tobytes() == out[0].normals.tobytes()
        assert other.valid.tobytes() == out[0].valid.tobytes()


def test_normals_query_neighbours_one_piece_at_a_time(monkeypatch):
    """No k-NN call of `estimate_normals` gets more than CHUNK_ROWS query
    rows, so the (N, k) neighbour tables of a whole scan never exist at
    once; the pieces still cover every point."""
    rows = []
    knn = SpatialIndex.knn

    def record(self, query, k):
        rows.append(len(np.asarray(query).reshape(-1, 3)))
        return knn(self, query, k)

    monkeypatch.setattr(SpatialIndex, "knn", record)
    cloud = PointCloud(0.0, noisy_box(np.random.default_rng(12), 1200))
    assert len(cloud) == 6000
    estimate_normals(cloud, k=40)
    assert max(rows) <= pointcloud.CHUNK_ROWS
    assert sum(rows) == len(cloud)


def scan_pair(seed, n_per_face=300):
    rng = np.random.default_rng(seed)
    target = estimate_normals(PointCloud(0.0, noisy_box(rng, n_per_face)), k=12,
                              sensor_origin=np.zeros(3))
    T = Pose(so3_exp([0.01, -0.02, 0.04]), [0.06, -0.03, 0.02])
    source = estimate_normals(
        PointCloud(0.1, target.points @ T.rotation.T + T.translation), k=12,
        sensor_origin=T.translation)
    return source, target


def assert_same_match(a, b):
    assert a.transform.rotation.tobytes() == b.transform.rotation.tobytes()
    assert a.transform.translation.tobytes() == b.transform.translation.tobytes()
    assert a.covariance.tobytes() == b.covariance.tobytes()
    assert (a.iterations, a.converged) == (b.iterations, b.converged)


class CountingIndex(SpatialIndex):
    sizes: list = []                        # cloud size of each build

    def __init__(self, cloud):
        CountingIndex.sizes.append(len(cloud))
        super().__init__(cloud)


def test_match_reuses_the_normals_tree(monkeypatch):
    source, target = scan_pair(9)
    assert target.valid.all() and target.index is not None
    monkeypatch.setattr(scan_matching, "SpatialIndex", CountingIndex)
    monkeypatch.setattr(CountingIndex, "sizes", [])
    reused = match(source, target, Pose.identity(), IcpParams())
    assert CountingIndex.sizes == []
    fresh = match(source, replace(target, index=None), Pose.identity(), IcpParams())
    assert CountingIndex.sizes == [len(target)]
    assert reused.converged
    assert_same_match(reused, fresh)


def test_match_builds_its_own_tree_when_normals_are_invalid(monkeypatch):
    source, target = scan_pair(10)
    valid = target.valid.copy()
    valid[::5] = False
    target = replace(target, valid=valid)
    assert target.index is not None
    monkeypatch.setattr(scan_matching, "SpatialIndex", CountingIndex)
    monkeypatch.setattr(CountingIndex, "sizes", [])
    m = match(source, target, Pose.identity(), IcpParams())
    assert CountingIndex.sizes == [valid.sum()]
    assert m.converged
    assert_same_match(m, match(source, target.valid_subset(), Pose.identity(),
                               IcpParams()))


def test_front_end_runs_on_the_calling_thread(monkeypatch):
    """Normals and ICP on a 6000-point cloud start no thread: the pipeline's
    front-end workers are the only threads a run adds."""
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    source, target = scan_pair(11, n_per_face=1200)
    assert len(target) == 6000
    assert match(source, target, Pose.identity(), IcpParams()).converged
    assert started == []
