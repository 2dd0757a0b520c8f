import numpy as np
import pytest

from liodom.factors import (BA, BG, P, STATE_DIM, T_E, THETA, THETA_E, V,
                            Factor, ImuFactor, LidarRelativeFactor,
                            LinearizedPriorFactor, PriorFactor, StateNode,
                            WalkFactor, sqrt_info_from_cov)
from liodom.geometry import Pose, so3_exp
from liodom.preintegration import (ImuBias, ImuNoiseParams, ImuSample,
                                   PreintegratedDelta, integrate)
from liodom.scan_matching import RelativePoseMeasurement


def random_state(rng, t=0.0):
    return StateNode(
        t,
        so3_exp(rng.uniform(-1, 1, 3)),
        rng.normal(size=3),
        rng.normal(size=3),
        ImuBias(rng.normal(scale=0.02, size=3), rng.normal(scale=0.002, size=3)),
        so3_exp(rng.uniform(-0.3, 0.3, 3)),
        rng.normal(scale=0.1, size=3),
    )


def random_delta(rng, n=40, dt=0.005):
    noise = ImuNoiseParams()
    d = PreintegratedDelta()
    for i in range(n):
        s = ImuSample(i * dt, rng.normal(scale=2.0, size=3),
                      rng.normal(scale=0.5, size=3))
        d = integrate(d, s, dt, noise)
    return d


def fd_jacobians(factor, states, eps=1e-7):
    """Central differences through the state retraction."""
    out = {}
    for i in factor.indices:
        cols = []
        for k in range(STATE_DIM):
            e = np.zeros(STATE_DIM)
            e[k] = eps
            sp = list(states)
            sp[i] = states[i].retract(e)
            sm = list(states)
            sm[i] = states[i].retract(-e)
            cols.append((factor.residual(sp) - factor.residual(sm)) / (2 * eps))
        out[i] = np.stack(cols, axis=1)
    return out


def check_jacobians(factor, states, atol=1e-5):
    r, J = factor.evaluate(states, True)
    # optimize accepts a step by comparing the cost of this residual, taken
    # while assembling, with the cost of residual(): they must agree exactly
    assert r.tobytes() == factor.residual(states).tobytes()
    J_fd = fd_jacobians(factor, states)
    assert set(J) == set(J_fd)
    for i in J:
        scale = max(np.abs(J_fd[i]).max(), 1.0)
        assert np.allclose(J[i], J_fd[i], atol=atol * scale), f"state {i}"


def test_retract_local_coordinates_roundtrip():
    rng = np.random.default_rng(0)
    s = random_state(rng)
    d = rng.uniform(-0.1, 0.1, STATE_DIM)
    assert np.allclose(s.local_coordinates(s.retract(d)), d, atol=1e-9)
    assert np.allclose(s.local_coordinates(s), 0.0)


def test_sqrt_info_whitens_covariance():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(6, 6))
    cov = M @ M.T + 0.1 * np.eye(6)
    S = sqrt_info_from_cov(cov)
    assert np.allclose(S.T @ S, np.linalg.inv(cov), rtol=1e-6, atol=1e-8)


def test_prior_pose_factor_jacobians():
    rng = np.random.default_rng(2)
    states = [random_state(rng)]
    f = PriorFactor(0, {THETA: so3_exp(rng.uniform(-1, 1, 3)),
                        P: rng.normal(size=3)}, np.eye(6) * 0.01)
    check_jacobians(f, states)


def test_prior_vector_factor_jacobians():
    rng = np.random.default_rng(3)
    states = [random_state(rng)]
    for offset in (V, BA, BG, T_E):
        f = PriorFactor(0, {offset: rng.normal(size=3)}, np.eye(3) * 0.01)
        check_jacobians(f, states)


def test_prior_extrinsic_rotation_factor_jacobians():
    rng = np.random.default_rng(4)
    states = [random_state(rng)]
    f = PriorFactor(0, {THETA_E: so3_exp(rng.uniform(-0.3, 0.3, 3))},
                    np.eye(3) * 0.01)
    check_jacobians(f, states)


def test_imu_factor_jacobians():
    rng = np.random.default_rng(5)
    states = [random_state(rng, 0.0), random_state(rng, 0.2)]
    f = ImuFactor(0, 1, random_delta(rng), ImuNoiseParams().gravity_W)
    check_jacobians(f, states)


def test_lidar_relative_factor_jacobians():
    rng = np.random.default_rng(6)
    states = [random_state(rng, 0.0), random_state(rng, 0.1)]
    meas = RelativePoseMeasurement(
        Pose(so3_exp(rng.uniform(-0.5, 0.5, 3)), rng.normal(size=3)),
        np.eye(6) * 1e-4, 0.0, 0.1, 5, True)
    check_jacobians(f := LidarRelativeFactor(0, 1, meas), states)


def test_lidar_relative_factor_zero_residual_at_truth():
    """The residual vanishes when poses and extrinsics reproduce the
    measured lidar-frame relative transform."""
    rng = np.random.default_rng(7)
    si, sj = random_state(rng, 0.0), random_state(rng, 0.1)
    sj.R_BL = si.R_BL.copy()
    sj.p_BL = si.p_BL.copy()
    R_WLi = si.R_WB @ si.R_BL
    t_WLi = si.p_WB + si.R_WB @ si.p_BL
    R_WLj = sj.R_WB @ sj.R_BL
    t_WLj = sj.p_WB + sj.R_WB @ sj.p_BL
    meas = RelativePoseMeasurement(
        Pose(R_WLi.T @ R_WLj, R_WLi.T @ (t_WLj - t_WLi)),
        np.eye(6) * 1e-4, 0.0, 0.1, 5, True)
    f = LidarRelativeFactor(0, 1, meas)
    assert np.allclose(f.residual([si, sj]), 0.0, atol=1e-12)


def test_lidar_relative_factor_gauge_invariance():
    """A global rigid transform of both body poses leaves the residual
    unchanged: relative lidar factors carry no absolute information."""
    rng = np.random.default_rng(8)
    si, sj = random_state(rng, 0.0), random_state(rng, 0.1)
    meas = RelativePoseMeasurement(
        Pose(so3_exp(rng.uniform(-0.5, 0.5, 3)), rng.normal(size=3)),
        np.eye(6) * 1e-4, 0.0, 0.1, 5, True)
    f = LidarRelativeFactor(0, 1, meas)
    r0 = f.residual([si, sj])
    G_R, G_t = so3_exp(rng.uniform(-1, 1, 3)), rng.normal(size=3)
    for s in (si, sj):
        s.p_WB = G_R @ s.p_WB + G_t
        s.R_WB = G_R @ s.R_WB
    assert np.allclose(f.residual([si, sj]), r0, atol=1e-10)


def test_bias_walk_factor_jacobians():
    rng = np.random.default_rng(9)
    states = [random_state(rng, 0.0), random_state(rng, 0.1)]
    check_jacobians(WalkFactor(0, 1, (BA, BG), np.eye(6) * 1e-6), states)


def test_extrinsics_walk_factor_jacobians():
    rng = np.random.default_rng(10)
    states = [random_state(rng, 0.0), random_state(rng, 0.1)]
    check_jacobians(WalkFactor(0, 1, (THETA_E, T_E), np.eye(6) * 1e-6), states)


def test_linearized_prior_factor():
    rng = np.random.default_rng(11)
    lin = random_state(rng, 0.0)
    A = rng.normal(size=(12, STATE_DIM))
    b = rng.normal(size=12)
    f = LinearizedPriorFactor(0, lin, A, b)
    # at the linearization point the residual is exactly -b
    assert np.allclose(f.residual([lin]), -b)
    check_jacobians(f, [lin.copy()], atol=1e-6)


def test_whitened_cost_matches_mahalanobis():
    rng = np.random.default_rng(12)
    states = [random_state(rng)]
    cov = np.diag(rng.uniform(0.01, 0.1, 6))
    f = PriorFactor(0, {THETA: np.eye(3), P: np.zeros(3)}, cov)
    r = f.residual(states)
    assert f.cost(states) == pytest.approx(r @ np.linalg.inv(cov) @ r, rel=1e-6)


def test_every_factor_is_whitened_by_the_base_class():
    """Factors implement evaluate only, so wrapping Factor.whitened and
    Factor.cost observes every factor's calls."""
    kinds = Factor.__subclasses__()
    assert {ImuFactor, LidarRelativeFactor, LinearizedPriorFactor,
            PriorFactor, WalkFactor} <= set(kinds)
    for kind in kinds:
        assert kind.whitened is Factor.whitened, kind
        assert kind.cost is Factor.cost, kind
