import numpy as np
import pytest
import scipy.linalg

from liodom.geometry import Pose, compose, rot_z, so3_log
from liodom.factors import (BA, BG, STATE_DIM, T_E, THETA_E, ImuFactor,
                            LidarRelativeFactor, LinearizedPriorFactor,
                            PriorFactor, WalkFactor)
from liodom.preintegration import ImuBias, ImuNoiseParams, integrate_window
from liodom.scan_matching import Gap, RelativePoseMeasurement
from liodom.simworld import TrajectorySpec, simulate_imu
from liodom.smoother import FixedLagSmoother, WindowConfig, _band, _gn_step

TINY = ImuNoiseParams(accel_noise_density=1e-8, gyro_noise_density=1e-8,
                      accel_bias_walk=1e-8, gyro_bias_walk=1e-8)


def smooth_trajectory(duration=10.0):
    tm = np.arange(0.0, duration + 0.5, 2.0)
    pos = np.stack([0.8 * np.sin(0.4 * tm), 0.5 * tm,
                    1.0 + 0.1 * np.sin(0.3 * tm)], axis=1)
    yaw = 0.3 * np.sin(0.5 * tm)
    return TrajectorySpec(tm, pos, yaw)


def make_sequence(duration=10.0, kf_dt=0.5, extr=None, rate=200.0,
                  noise=TINY, lidar_cov=1e-6, kf_times=None):
    """Noiseless IMU samples, exact lidar relative measurements, and ground
    truth poses at the keyframe times (every kf_dt unless given)."""
    traj = smooth_trajectory(duration)
    extr = extr or Pose(np.eye(3), np.zeros(3), "B", "L")
    samples = simulate_imu(traj, noise, ImuBias(), rate)
    if kf_times is None:
        kf_times = np.arange(0.0, duration + 1e-9, kf_dt)
    gt = [(float(t), traj.pose(float(t))) for t in kf_times]
    lidar = []
    for (t0, T0), (t1, T1) in zip(gt, gt[1:]):
        L0 = compose(T0, extr)
        L1 = compose(T1, extr)
        rel = compose(L0.inverse(), L1)
        lidar.append(RelativePoseMeasurement(
            Pose(rel.rotation, rel.translation), np.eye(6) * lidar_cov,
            t0, t1, 1, True))
    return samples, gt, lidar


def imu_delta(sm, samples, t0, t1, noise):
    """The samples between keyframes t0 and t1, preintegrated at the bias of
    the window's latest state."""
    times = np.array([s.timestamp for s in samples])
    i0 = max(int(np.searchsorted(times, t0, "right")) - 1, 0)
    i1 = int(np.searchsorted(times, t1, "left"))
    return integrate_window(samples[i0:i1], t0, t1, sm.latest.bias, noise)


def feed(sm, samples, gt, lidar, marginalize=True, noise=TINY, optimize=True):
    trace = []
    for k, (t, _) in enumerate(gt):
        if k == 0:
            sm.add_keyframe(t, None, None)
        else:
            delta = imu_delta(sm, samples, gt[k - 1][0], t, noise)
            sm.add_keyframe(t, delta, lidar[k - 1])
        if optimize:
            sm.optimize()
        if marginalize:
            sm.marginalize()
        trace.append((t, Pose(sm.latest.R_WB, sm.latest.p_WB, "W", "B")))
    return trace


def test_fixed_lag_matches_full_batch():
    """With a 3 s lag the marginalized estimate tracks the full-batch
    solution to well under a millimeter on a noiseless 10 s sequence."""
    samples, gt, lidar = make_sequence()
    win = WindowConfig(lag=3.0)
    batch_win = WindowConfig(lag=1e9)
    sm_lag = FixedLagSmoother(win, TINY, Pose(np.eye(3), np.zeros(3), "B", "L"))
    sm_batch = FixedLagSmoother(batch_win, TINY, Pose(np.eye(3), np.zeros(3), "B", "L"))
    tr_lag = feed(sm_lag, samples, gt, lidar)
    tr_batch = feed(sm_batch, samples, gt, lidar, marginalize=False)
    assert len(sm_batch.states) == len(gt)
    assert len(sm_lag.states) < len(gt)
    for (t1, a), (t2, b) in zip(tr_lag, tr_batch):
        assert t1 == t2
        assert np.linalg.norm(a.translation - b.translation) < 1e-3
        assert np.linalg.norm(so3_log(a.rotation.T @ b.rotation)) < 1e-3


def test_tracks_ground_truth_noiseless():
    samples, gt, lidar = make_sequence()
    sm = FixedLagSmoother(WindowConfig(lag=3.0), TINY,
                          Pose(np.eye(3), np.zeros(3), "B", "L"),
                          init_R_WB=gt[0][1].rotation,
                          init_p_WB=gt[0][1].translation)
    trace = feed(sm, samples, gt, lidar)
    for (t, est), (_, truth) in zip(trace, gt):
        assert np.linalg.norm(est.translation - truth.translation) < 1e-3
        assert np.linalg.norm(so3_log(est.rotation.T @ truth.rotation)) < 1e-3


def test_optimize_does_not_increase_cost():
    samples, gt, lidar = make_sequence(duration=4.0)
    rng = np.random.default_rng(0)
    noisy = [RelativePoseMeasurement(
        Pose(m.transform.rotation, m.transform.translation
             + rng.normal(scale=0.01, size=3)),
        np.eye(6) * 1e-4, m.timestamp_from, m.timestamp_to, 1, True)
        for m in lidar]
    sm = FixedLagSmoother(WindowConfig(lag=1e9), TINY, Pose(np.eye(3), np.zeros(3), "B", "L"))
    times = np.array([s.timestamp for s in samples])
    for k, (t, _) in enumerate(gt):
        if k == 0:
            sm.add_keyframe(t, None, None)
        else:
            i0 = max(int(np.searchsorted(times, gt[k - 1][0], "right")) - 1, 0)
            i1 = int(np.searchsorted(times, t, "left"))
            delta = integrate_window(samples[i0:i1], gt[k - 1][0], t,
                                     sm.latest.bias, TINY)
            sm.add_keyframe(t, delta, noisy[k - 1])
        before = sm.total_cost()
        after = sm.optimize()
        assert after <= before + 1e-12
        assert sm.total_cost() == pytest.approx(after, rel=1e-9)


def test_gauge_equivariance_under_yaw_and_shift():
    """Starting the anchor at a yawed, shifted pose must yield exactly the
    transformed trajectory: the estimator has no absolute reference beyond
    its anchor prior and gravity."""
    # moderate noise scales keep the normal equations well conditioned so
    # the two runs agree to solver precision
    noise = ImuNoiseParams(accel_noise_density=1e-3, gyro_noise_density=1e-4,
                           accel_bias_walk=1e-5, gyro_bias_walk=1e-5)
    samples, gt, lidar = make_sequence(duration=4.0, noise=noise,
                                       lidar_cov=1e-4)
    G = Pose(rot_z(0.7), np.array([0.8, -0.5, 0.2]), "W", "W")
    win = WindowConfig(lag=1e9, convergence_epsilon=1e-14,
                       max_gn_iterations=40)
    sm_a = FixedLagSmoother(win, noise,
                            Pose(np.eye(3), np.zeros(3), "B", "L"),
                            init_R_WB=gt[0][1].rotation,
                            init_p_WB=gt[0][1].translation)
    sm_b = FixedLagSmoother(win, noise,
                            Pose(np.eye(3), np.zeros(3), "B", "L"),
                            init_R_WB=G.rotation @ gt[0][1].rotation,
                            init_p_WB=G.rotation @ gt[0][1].translation
                            + G.translation)
    tr_a = feed(sm_a, samples, gt, lidar, marginalize=False, noise=noise)
    tr_b = feed(sm_b, samples, gt, lidar, marginalize=False, noise=noise)
    for (_, a), (_, b) in zip(tr_a, tr_b):
        expect_p = G.rotation @ a.translation + G.translation
        expect_R = G.rotation @ a.rotation
        assert np.linalg.norm(b.translation - expect_p) < 1e-9
        assert np.linalg.norm(so3_log(b.rotation.T @ expect_R)) < 1e-9


def test_window_length_is_bounded():
    samples, gt, lidar = make_sequence()
    sm = FixedLagSmoother(WindowConfig(lag=2.0), TINY, Pose(np.eye(3), np.zeros(3), "B", "L"))
    feed(sm, samples, gt, lidar)
    # 2 s lag at 0.5 s keyframes: at most 5 states plus slack for the cutoff
    assert len(sm.states) <= 6


def test_keyframes_must_advance_in_time():
    sm = FixedLagSmoother(WindowConfig(), TINY, Pose(np.eye(3), np.zeros(3), "B", "L"))
    sm.add_keyframe(0.0, None, None)
    with pytest.raises(ValueError):
        sm.add_keyframe(0.0, None, None)


def test_non_initial_keyframe_requires_delta():
    sm = FixedLagSmoother(WindowConfig(), TINY, Pose(np.eye(3), np.zeros(3), "B", "L"))
    sm.add_keyframe(0.0, None, None)
    with pytest.raises(ValueError):
        sm.add_keyframe(0.5, None, None)


def test_gap_keyframe_keeps_running_on_imu():
    samples, gt, lidar = make_sequence(duration=4.0)
    sm = FixedLagSmoother(WindowConfig(lag=1e9), TINY,
                          Pose(np.eye(3), np.zeros(3), "B", "L"),
                          init_R_WB=gt[0][1].rotation,
                          init_p_WB=gt[0][1].translation)
    times = np.array([s.timestamp for s in samples])
    for k, (t, _) in enumerate(gt):
        if k == 0:
            sm.add_keyframe(t, None, None)
        else:
            i0 = max(int(np.searchsorted(times, gt[k - 1][0], "right")) - 1, 0)
            i1 = int(np.searchsorted(times, t, "left"))
            delta = integrate_window(samples[i0:i1], gt[k - 1][0], t,
                                     sm.latest.bias, TINY)
            meas = Gap(gt[k - 1][0], t, "test") if k == 4 else lidar[k - 1]
            sm.add_keyframe(t, delta, meas)
        sm.optimize()
    # IMU bridges the gap on a noiseless sequence
    t_end, truth = gt[-1]
    assert np.linalg.norm(sm.latest.p_WB - truth.translation) < 5e-3


def dense_from_blocks(D, U):
    """The symmetric H whose diagonal blocks are D and super-diagonal
    blocks are U."""
    n = len(D)
    H = np.zeros((n * STATE_DIM, n * STATE_DIM))
    blk = [slice(k * STATE_DIM, (k + 1) * STATE_DIM) for k in range(n)]
    for k in range(n):
        H[blk[k], blk[k]] = D[k]
    for k in range(n - 1):
        H[blk[k], blk[k + 1]] = U[k]
        H[blk[k + 1], blk[k]] = U[k].T
    return H


@pytest.mark.parametrize("lag, prior_kind", [(1e9, PriorFactor),
                                              (1.0, LinearizedPriorFactor)])
def test_assemble_matches_dense_jacobian_oracle(lag, prior_kind):
    """The blocks of H, g and the cost equal J^T J, J^T r and r^T r of the
    dense stacked whitened Jacobian."""
    noise = ImuNoiseParams(accel_noise_density=1e-3, gyro_noise_density=1e-4,
                           accel_bias_walk=1e-5, gyro_bias_walk=1e-5)
    samples, gt, lidar = make_sequence(duration=3.0, noise=noise,
                                       lidar_cov=1e-4)
    sm = FixedLagSmoother(WindowConfig(lag=lag), noise,
                          Pose(np.eye(3), np.zeros(3), "B", "L"))
    # assembled at the IMU-predicted states; no solve is needed
    feed(sm, samples, gt, lidar, noise=noise, optimize=False)
    kinds = {type(f) for f in sm.factors}
    assert {ImuFactor, WalkFactor, LidarRelativeFactor, prior_kind} <= kinds
    assert {f.offsets for f in sm.factors if isinstance(f, WalkFactor)} \
        == {(BA, BG), (THETA_E, T_E)}
    n = len(sm.states)
    D, U, g, cost = sm._assemble(sm.factors, 0, n)
    H = dense_from_blocks(D, U)

    rows, res = [], []
    for f in sm.factors:
        wr, wJ = f.whitened(sm.states)
        J = np.zeros((len(wr), n * STATE_DIM))
        for i, Ji in wJ.items():
            J[:, i * STATE_DIM:(i + 1) * STATE_DIM] = Ji
        rows.append(J)
        res.append(wr)
    J, r = np.vstack(rows), np.concatenate(res)
    H_ref, g_ref = J.T @ J, J.T @ r
    assert np.allclose(H, H_ref, rtol=0, atol=1e-12 * np.abs(H_ref).max())
    assert np.allclose(g, g_ref, rtol=0, atol=1e-12 * np.abs(g_ref).max())
    assert cost == pytest.approx(r @ r, rel=1e-12)


@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_gn_step_matches_dense_solve(lam):
    """The banded Cholesky step equals a dense solve of the damped normal
    equations. H's condition number on this window is about 2e8, so the
    rounding of either solver stays well inside the bound."""
    noise = ImuNoiseParams(accel_noise_density=1e-2, gyro_noise_density=1e-3,
                           accel_bias_walk=1e-4, gyro_bias_walk=1e-4)
    samples, gt, lidar = make_sequence(duration=4.0, noise=noise,
                                       lidar_cov=1e-3)
    sm = FixedLagSmoother(WindowConfig(lag=2.0), noise,
                          Pose(np.eye(3), np.zeros(3), "B", "L"))
    feed(sm, samples, gt, lidar, noise=noise, optimize=False)
    assert len(sm.states) >= 4
    D, U, g, _ = sm._assemble(sm.factors, 0, len(sm.states))
    H = dense_from_blocks(D, U)
    Hd = H + lam * np.diag(np.maximum(np.diag(H), 1e-6))
    expect = scipy.linalg.solve(Hd, -g, assume_a="pos")
    delta = _gn_step(_band(D, U), g, lam)
    assert np.linalg.norm(delta - expect) <= 1e-9 * np.linalg.norm(expect)


def test_assemble_rejects_factor_off_the_band():
    samples, gt, lidar = make_sequence(duration=2.0)
    sm = FixedLagSmoother(WindowConfig(lag=1e9), TINY,
                          Pose(np.eye(3), np.zeros(3), "B", "L"))
    feed(sm, samples, gt[:3], lidar, marginalize=False, optimize=False)
    sm.factors.append(WalkFactor(0, 2, (BA, BG), np.eye(6)))
    with pytest.raises(ValueError, match="non-adjacent"):
        sm._assemble(sm.factors, 0, 3)


def test_marginalize_drops_several_states_at_once():
    """A keyframe three periods after the last one drops three states in
    one marginalize; their prior lands on the new oldest state alone, which
    keeps H block-tridiagonal."""
    noise = ImuNoiseParams(accel_noise_density=1e-3, gyro_noise_density=1e-4,
                           accel_bias_walk=1e-5, gyro_bias_walk=1e-5)
    samples, gt, lidar = make_sequence(duration=4.0, noise=noise,
                                       lidar_cov=1e-4,
                                       kf_times=[0.0, 0.5, 1.0, 2.5, 3.0])
    sm = FixedLagSmoother(WindowConfig(lag=1.0), noise,
                          Pose(np.eye(3), np.zeros(3), "B", "L"),
                          init_R_WB=gt[0][1].rotation,
                          init_p_WB=gt[0][1].translation)
    feed(sm, samples, gt[:3], lidar, noise=noise)
    assert len(sm.states) == 3
    for k in (3, 4):
        sm.add_keyframe(gt[k][0], imu_delta(sm, samples, gt[k - 1][0],
                                            gt[k][0], noise), lidar[k - 1])
        sm.optimize()
        assert sm.healthy
        sm.marginalize()
        if k == 3:
            assert len(sm.states) == 1
    priors = [f for f in sm.factors if isinstance(f, LinearizedPriorFactor)]
    assert len(priors) == 1 and priors[0].indices == (0,)
    assert [s.timestamp for s in sm.states] == [2.5, 3.0]
    assert np.linalg.norm(sm.latest.p_WB - gt[4][1].translation) < 1e-4


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(lag=0.0)
