import numpy as np
import pytest

from liodom.geometry import Pose, rot_z, so3_exp, so3_log
from liodom.pointcloud import PointCloud, estimate_normals
from liodom.scan_matching import IcpParams, gravity_align_guess, match


def room_cloud(rng, n_per_face=150, half=3.0, t=0.0, noise=0.0):
    """Five faces of a box (floor + four walls): fully constrained geometry."""
    pts = []
    faces = [(2, -half), (0, -half), (0, half), (1, -half), (1, half)]
    for axis, offset in faces:
        p = rng.uniform(-half, half, size=(n_per_face, 3))
        p[:, axis] = offset
        pts.append(p)
    pts = np.vstack(pts)
    if noise > 0:
        pts = pts + rng.normal(scale=noise, size=pts.shape)
    return estimate_normals(PointCloud(t, pts), k=12,
                            sensor_origin=np.zeros(3))


def corridor_cloud(rng, n=400, t=0.0):
    """Two walls + floor; unconstrained along x."""
    pts = []
    for axis, offset, m in [(1, -1.0, n), (1, 1.0, n), (2, -1.0, n // 2)]:
        p = rng.uniform(-6, 6, size=(m, 3))
        p[:, axis] = offset
        pts.append(p)
    return estimate_normals(PointCloud(t, np.vstack(pts)), k=12,
                            sensor_origin=np.zeros(3))


def apply_pose(cloud, T, t=1.0):
    return estimate_normals(
        PointCloud(t, cloud.points @ T.rotation.T + T.translation), k=12,
        sensor_origin=T.translation)


@pytest.mark.parametrize("seed,T_true", [
    (0, Pose(so3_exp([0.01, -0.02, 0.05]), [0.05, -0.03, 0.02])),
    (1, Pose(rot_z(0.04), [0.08, 0.0, -0.02])),
], ids=["seed0", "seed1"])
def test_match_recovers_known_transform(seed, T_true):
    rng = np.random.default_rng(seed)
    target = room_cloud(rng)
    # source points expressed in a frame displaced by T_true:
    # x_target = R x_source + t  =>  x_source = R^T (x_target - t)
    src = apply_pose(target, T_true.inverse())
    m = match(src, target, Pose.identity(), IcpParams())
    assert m.converged
    assert np.allclose(m.transform.translation, T_true.translation, atol=2e-3)
    assert np.allclose(so3_log(m.transform.rotation),
                       so3_log(T_true.rotation), atol=2e-3)


def test_match_with_noise_stays_accurate():
    rng = np.random.default_rng(2)
    target = room_cloud(rng, noise=0.01)
    T_true = Pose(rot_z(0.03), [0.1, 0.05, 0.0])
    src = room_cloud(np.random.default_rng(3), noise=0.01)
    src = apply_pose(src, T_true.inverse())
    m = match(src, target, Pose.identity(), IcpParams())
    assert m.converged
    assert np.linalg.norm(m.transform.translation - T_true.translation) < 0.02


def test_covariance_is_symmetric_positive_definite():
    rng = np.random.default_rng(4)
    target = room_cloud(rng, noise=0.005)
    src = room_cloud(np.random.default_rng(5), noise=0.005)
    m = match(src, target, Pose.identity(), IcpParams())
    C = m.covariance
    assert np.allclose(C, C.T)
    assert np.all(np.linalg.eigvalsh(C) > 0)


def test_degenerate_direction_is_inflated():
    """In a corridor the along-axis translation variance must dwarf the rest."""
    rng = np.random.default_rng(6)
    target = corridor_cloud(rng)
    src = corridor_cloud(np.random.default_rng(7))
    m = match(src, target, Pose.identity(), IcpParams())
    C_tt = m.covariance[3:, 3:]
    assert C_tt[0, 0] > 1e3 * C_tt[1, 1]
    assert C_tt[0, 0] > 1e2 * C_tt[2, 2]


def test_match_requires_target_normals():
    rng = np.random.default_rng(8)
    src = room_cloud(rng)
    bare = PointCloud(0.0, src.points)
    with pytest.raises(ValueError):
        match(src, bare, Pose.identity(), IcpParams())


def test_match_tiny_cloud_reports_unconverged():
    rng = np.random.default_rng(9)
    target = room_cloud(rng)
    tiny = PointCloud(1.0, rng.normal(size=(5, 3)))
    m = match(tiny, target, Pose.identity(), IcpParams())
    assert not m.converged
    assert m.covariance[0, 0] >= 1e6


def test_params_validation():
    with pytest.raises(ValueError):
        IcpParams(max_iterations=0)
    with pytest.raises(ValueError):
        IcpParams(max_correspondence_distance=-0.1)


def test_gravity_align_guess():
    rng = np.random.default_rng(10)
    R_prev = so3_exp(rng.uniform(-1, 1, 3))
    R_rel = so3_exp([0.0, 0.0, 0.2])
    R_now = R_prev @ R_rel
    extr = Pose(so3_exp([0.1, -0.2, 0.3]), [0.0, 0.1, 0.0], "B", "L")
    guess = gravity_align_guess(R_now, extr, R_prev)
    R_BL = extr.rotation
    assert np.allclose(guess.rotation, R_BL.T @ R_rel @ R_BL)
    assert np.allclose(guess.translation, 0.0)


def test_odometry_uses_attitude_provider():
    """A large pure rotation that plain ICP misses is recovered when the
    initial guess comes from the IMU attitudes via gravity_align_guess."""
    rng = np.random.default_rng(13)
    base = room_cloud(rng)
    yaw = 1.0
    moved = apply_pose(base, Pose(rot_z(yaw), np.zeros(3)).inverse(), t=1.0)
    plain = match(moved, base, Pose.identity(), IcpParams())
    assert abs(so3_log(plain.transform.rotation)[2] - yaw) > 0.1
    init = gravity_align_guess(rot_z(yaw), Pose.identity(), np.eye(3))
    m = match(moved, base, init, IcpParams())
    assert m.converged
    assert np.allclose(so3_log(m.transform.rotation), [0, 0, yaw],
                       atol=5e-3)
