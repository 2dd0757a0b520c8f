import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liodom.pointcloud import (EmptyCloudError, PointCloud, SpatialIndex,
                               estimate_normals, load_csv, save_csv,
                               voxel_downsample)


def grid_plane(n=12, spacing=0.1, z=0.0):
    xs = np.arange(n) * spacing
    gx, gy = np.meshgrid(xs, xs)
    return np.stack([gx.ravel(), gy.ravel(), np.full(n * n, z)], axis=1)


def test_cloud_rejects_nan():
    pts = np.zeros((4, 3))
    pts[2, 1] = np.nan
    with pytest.raises(ValueError):
        PointCloud(0.0, pts)


def test_cloud_normal_length_mismatch():
    with pytest.raises(ValueError):
        PointCloud(0.0, np.zeros((4, 3)), normals=np.zeros((3, 3)))


def test_index_rejects_empty_cloud():
    with pytest.raises(EmptyCloudError):
        SpatialIndex(PointCloud(0.0, np.zeros((0, 3))))


def test_knn_against_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(200, 3))
    index = SpatialIndex(PointCloud(0.0, pts))
    queries = rng.normal(size=(20, 3))
    d, i = index.knn(queries, 5)
    for qi, q in enumerate(queries):
        ref = np.argsort(np.linalg.norm(pts - q, axis=1))[:5]
        assert set(i[qi]) == set(ref)
        assert np.allclose(np.sort(d[qi]),
                           np.sort(np.linalg.norm(pts[ref] - q, axis=1)))


def test_knn_tie_breaks_toward_smaller_index():
    pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
    index = SpatialIndex(PointCloud(0.0, pts))
    _, i = index.knn(np.zeros(3), 4)
    assert list(i) == [0, 1, 2, 3]


def test_nearest_single_query_shape():
    index = SpatialIndex(PointCloud(0.0, np.eye(3)))
    d, i = index.nearest(np.array([1.0, 0.05, 0.0]))
    assert i == 0 and d == pytest.approx(0.05)


def test_normals_on_axis_aligned_plane():
    cloud = estimate_normals(PointCloud(0.0, grid_plane(z=-2.0)), k=8,
                             sensor_origin=np.zeros(3))
    assert cloud.valid.all()
    # sensor at origin is above the z=-2 plane: normals must point up
    assert np.allclose(cloud.normals, [0.0, 0.0, 1.0], atol=1e-9)


def test_normals_on_rotated_plane():
    from liodom.geometry import so3_exp
    rng = np.random.default_rng(1)
    R = so3_exp(rng.uniform(-1, 1, 3))
    pts = grid_plane() @ R.T + R @ np.array([0, 0, -3.0])
    cloud = estimate_normals(PointCloud(0.0, pts), k=8,
                             sensor_origin=np.zeros(3))
    n_true = R @ np.array([0.0, 0.0, 1.0])
    dots = cloud.normals @ n_true
    assert np.all(np.abs(dots) > 1 - 1e-6)
    # all signed toward the sensor side
    to_sensor = -pts
    assert np.all(np.einsum("ni,ni->n", cloud.normals, to_sensor) >= 0)


def test_collinear_points_flagged_invalid():
    line = np.stack([np.linspace(0, 1, 30),
                     np.zeros(30), np.zeros(30)], axis=1)
    cloud = estimate_normals(PointCloud(0.0, line), k=6)
    assert not cloud.valid.any()
    assert len(cloud.valid_subset()) == 0


def test_estimate_normals_needs_enough_points():
    with pytest.raises(ValueError):
        estimate_normals(PointCloud(0.0, np.zeros((2, 3))), k=5)


def test_voxel_centroid_oracle():
    pts = np.array([[0.01, 0.01, 0.01], [0.09, 0.09, 0.09],   # same cell
                    [0.55, 0.0, 0.0]])                        # another cell
    out = voxel_downsample(PointCloud(0.0, pts), 0.1)
    assert len(out) == 2
    assert np.allclose(out.points[0], [0.05, 0.05, 0.05])
    assert np.allclose(out.points[1], [0.55, 0.0, 0.0])


def test_voxel_first_occurrence_order():
    pts = np.array([[0.95, 0, 0], [0.05, 0, 0], [0.96, 0, 0]])
    out = voxel_downsample(PointCloud(0.0, pts), 0.1)
    assert out.points[0, 0] > out.points[1, 0]


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_voxel_idempotent(seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(0.0, rng.uniform(-2, 2, size=(64, 3)))
    once = voxel_downsample(cloud, 0.25)
    twice = voxel_downsample(once, 0.25)
    assert np.allclose(once.points, twice.points)


def test_voxel_reduces_density():
    rng = np.random.default_rng(3)
    cloud = PointCloud(0.0, rng.uniform(0, 1, size=(5000, 3)))
    out = voxel_downsample(cloud, 0.5)
    assert len(out) <= 2 ** 3 + 3 * 4 + 6 * 2 + 1   # cells of a unit cube
    d = np.linalg.norm(out.points[:, None] - out.points[None], axis=-1)
    np.fill_diagonal(d, np.inf)


def test_csv_roundtrip(tmp_path):
    """A cloud round-trips as its points under an `x,y,z` header; the
    timestamp comes from the file name."""
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(17, 3))
    path = str(tmp_path / "1500000000.csv")
    save_csv(PointCloud(1.5, pts), path)
    with open(path) as f:
        assert f.readline() == "x,y,z\n"
    back = load_csv(path)
    assert back.timestamp == pytest.approx(1.5)
    assert np.allclose(back.points, pts, atol=1e-8)


@pytest.mark.parametrize("pts", [
    np.zeros((0, 3)),
    [[-0.0, 0.0, -0.0]],
    [[1e12, -1e12, 1e-12], [-1e-12, 0.5, -0.5]],
    [[1.0000000005, -1.0000000005, 5e-10], [-5e-10, 0.1234567885, 2.5e-9]],
], ids=["empty", "negative-zero", "huge-and-tiny", "ninth-decimal-edge"])
def test_save_csv_writes_the_text_of_savetxt(tmp_path, pts):
    cloud = PointCloud(0.0, np.array(pts, float).reshape(-1, 3))
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    save_csv(cloud, str(ours))
    np.savetxt(str(ref), cloud.points, fmt="%.9f", delimiter=",",
               header="x,y,z", comments="")
    assert ours.read_bytes() == ref.read_bytes()


def test_csv_without_normals(tmp_path):
    """Normals are neither written nor read: a cloud with normals is saved
    as its points, and extra columns in a file are ignored."""
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(17, 3))
    normals = rng.normal(size=(17, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    path = str(tmp_path / "2000000000.csv")
    save_csv(PointCloud(2.0, pts, normals), path)
    with open(path) as f:
        assert f.readline() == "x,y,z\n"
        assert len(f.readline().split(",")) == 3
    back = load_csv(path)
    assert not back.has_normals
    assert np.allclose(back.points, pts, atol=1e-8)
    wide = str(tmp_path / "2500000000.csv")
    np.savetxt(wide, np.hstack([pts, normals]), fmt="%.9f", delimiter=",",
               header="x,y,z,nx,ny,nz", comments="")
    back = load_csv(wide)
    assert back.timestamp == pytest.approx(2.5)
    assert not back.has_normals
    assert np.allclose(back.points, pts, atol=1e-8)
