import numpy as np
import pytest
from hypothesis import given, strategies as st

from liodom.geometry import (FrameMismatchError, NonPrincipalBranchError,
                             Pose, compose, quat_to_rot, rot_to_quat, rot_z,
                             skew, so3_exp, so3_log, so3_right_jacobian,
                             so3_right_jacobian_inv)

unit_angles = st.floats(-3.0, 3.0, allow_nan=False)
small = st.floats(-1.0, 1.0, allow_nan=False)


def random_rotation(rng):
    return so3_exp(rng.uniform(-2.0, 2.0, 3))


def test_skew_matches_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(skew(v) @ w, np.cross(v, w))


def test_skew_is_antisymmetric():
    K = skew([1.0, -2.0, 3.0])
    assert np.allclose(K, -K.T)


@given(st.lists(small, min_size=3, max_size=3))
def test_exp_produces_rotation(phi):
    R = so3_exp(np.array(phi))
    assert R.shape == (3, 3)
    assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-9
    assert abs(np.linalg.det(R) - 1.0) < 1e-9


@given(st.lists(small, min_size=3, max_size=3))
def test_exp_log_roundtrip(phi):
    phi = np.array(phi)
    assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-9)


def test_exp_against_rodrigues_oracle():
    # independent oracle: scipy's rotation vector convention
    from scipy.spatial.transform import Rotation
    rng = np.random.default_rng(1)
    for _ in range(30):
        phi = rng.uniform(-3.0, 3.0, 3)
        assert np.allclose(so3_exp(phi), Rotation.from_rotvec(phi).as_matrix(),
                           atol=1e-12)


def test_exp_small_angle_branch():
    phi = np.array([1e-10, -2e-10, 3e-11])
    assert np.allclose(so3_exp(phi), np.eye(3) + skew(phi), atol=1e-18)
    assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-15)


def test_log_rejects_angle_pi():
    with pytest.raises(NonPrincipalBranchError):
        so3_log(rot_z(np.pi))


def test_elementary_rotations():
    a = 0.7
    assert np.allclose(rot_z(a), so3_exp([0, 0, a]))


def test_rot_z_of_an_array_stacks_each_angle():
    a = np.array([[0.0, 0.7, -2.5], [np.pi, 1e-9, 4.0]])
    R = rot_z(a)
    assert R.shape == (2, 3, 3, 3)
    for i, j in np.ndindex(a.shape):
        assert np.array_equal(R[i, j], rot_z(float(a[i, j])))
    assert np.array_equal(rot_z(0.3),
                          [[np.cos(0.3), -np.sin(0.3), 0],
                           [np.sin(0.3), np.cos(0.3), 0], [0, 0, 1]])


def test_right_jacobian_first_order_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        phi = rng.uniform(-2.0, 2.0, 3)
        d = rng.normal(size=3) * 1e-6
        lhs = so3_exp(phi + d)
        rhs = so3_exp(phi) @ so3_exp(so3_right_jacobian(phi) @ d)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_right_jacobian_inverse_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = rng.uniform(-2.0, 2.0, 3)
        J = so3_right_jacobian(phi) @ so3_right_jacobian_inv(phi)
        assert np.allclose(J, np.eye(3), atol=1e-9)


def test_quaternion_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(30):
        R = random_rotation(rng)
        assert np.allclose(quat_to_rot(rot_to_quat(R)), R, atol=1e-12)


def test_quaternion_against_scipy():
    from scipy.spatial.transform import Rotation
    rng = np.random.default_rng(5)
    for _ in range(30):
        R = random_rotation(rng)
        q = rot_to_quat(R)
        q_ref = Rotation.from_matrix(R).as_quat()
        if q_ref[3] < 0:
            q_ref = -q_ref
        assert np.allclose(q, q_ref, atol=1e-9)


def test_pose_inverse_and_compose():
    rng = np.random.default_rng(6)
    for _ in range(20):
        T = Pose(random_rotation(rng), rng.normal(size=3))
        I = compose(T, T.inverse())
        assert np.allclose(I.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(I.translation, 0.0, atol=1e-12)


def test_pose_transform_matches_matrix():
    rng = np.random.default_rng(7)
    T = Pose(random_rotation(rng), rng.normal(size=3))
    pts = rng.normal(size=(10, 3))
    M = np.eye(4)
    M[:3, :3], M[:3, 3] = T.rotation, T.translation
    hom = np.hstack([pts, np.ones((10, 1))])
    assert np.allclose(T.transform(pts), (M @ hom.T).T[:, :3])


def test_frame_checking():
    a = Pose(np.eye(3), np.zeros(3), "W", "B")
    b = Pose(np.eye(3), np.zeros(3), "B", "L")
    assert compose(a, b).frame_parent == "W"
    assert compose(a, b).frame_child == "L"
    with pytest.raises(FrameMismatchError):
        compose(b, a)



# The scalar SO(3) formulas as they were before the functions took stacks:
# the oracle the stacked versions must reproduce bit for bit.

def scalar_skew(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def scalar_exp(phi):
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    K = scalar_skew(phi)
    if angle < 1e-8:
        return np.eye(3) + K + 0.5 * (K @ K)
    return (np.eye(3) + (np.sin(angle) / angle) * K
            + ((1.0 - np.cos(angle)) / angle**2) * (K @ K))


def scalar_log(R):
    trace = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    angle = np.arccos(trace)
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle < 1e-8:
        return 0.5 * w
    return (angle / (2.0 * np.sin(angle))) * w


def scalar_right_jacobian(phi):
    angle = np.linalg.norm(phi)
    K = scalar_skew(phi)
    if angle < 1e-6:
        return np.eye(3) - 0.5 * K + (K @ K) / 6.0
    return (np.eye(3) - ((1.0 - np.cos(angle)) / angle**2) * K
            + ((angle - np.sin(angle)) / angle**3) * (K @ K))


def scalar_right_jacobian_inv(phi):
    angle = np.linalg.norm(phi)
    K = scalar_skew(phi)
    if angle < 1e-6:
        return np.eye(3) + 0.5 * K + (K @ K) / 12.0
    cot_half = angle * np.cos(angle * 0.5) / (2.0 * np.sin(angle * 0.5))
    return np.eye(3) + 0.5 * K + ((1.0 - cot_half) / angle**2) * (K @ K)


def oracle_vectors():
    """Rotation vectors at angle 0, 1e-9, both sides of the 1e-8 and 1e-6
    branch thresholds, and random angles from 1e-10 to 3 rad."""
    rng = np.random.default_rng(8)
    angles = [0.0, 1e-9]
    for threshold in (1e-8, 1e-6):
        angles += [np.nextafter(threshold, 0.0), threshold,
                   np.nextafter(threshold, 1.0), threshold * (1 - 1e-9)]
    angles += list(rng.uniform(0.0, 3.0, 400) * 10.0 ** rng.uniform(-10, 0, 400))
    axes = rng.normal(size=(len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return axes * np.array(angles)[:, None]


@pytest.mark.parametrize("stacked, scalar", [
    (skew, scalar_skew), (so3_exp, scalar_exp),
    (so3_right_jacobian, scalar_right_jacobian),
    (so3_right_jacobian_inv, scalar_right_jacobian_inv)])
def test_stacked_functions_match_scalar_formulas_bitwise(stacked, scalar):
    phi = oracle_vectors()
    expect = np.stack([scalar(p) for p in phi])
    assert stacked(phi).tobytes() == expect.tobytes()
    assert stacked(phi.reshape(-1, 2, 3)).tobytes() == expect.tobytes()
    assert np.stack([stacked(p) for p in phi]).tobytes() == expect.tobytes()


def test_stacked_log_matches_scalar_formula_bitwise():
    phi = oracle_vectors()
    # products of rotations: their traces are not exactly 3 at tiny angles
    R = np.stack([scalar_exp(p) for p in phi]) @ scalar_exp([0.3, -0.2, 0.1])
    R = np.swapaxes(scalar_exp([0.3, -0.2, 0.1]), 0, 1) @ R
    for rotations in (R, np.stack([scalar_exp(p) for p in phi])):
        expect = np.stack([scalar_log(Ri) for Ri in rotations])
        assert so3_log(rotations).tobytes() == expect.tobytes()
        assert np.stack([so3_log(Ri) for Ri in rotations]).tobytes() \
            == expect.tobytes()


def test_stacked_log_rejects_any_angle_near_pi():
    R = np.stack([np.eye(3), rot_z(0.5), rot_z(np.pi)])
    with pytest.raises(NonPrincipalBranchError):
        so3_log(R)
    # a numerical failure, not a data error: the CLI exits 3 on it
    assert issubclass(NonPrincipalBranchError, ArithmeticError)
    assert not issubclass(NonPrincipalBranchError, ValueError)
