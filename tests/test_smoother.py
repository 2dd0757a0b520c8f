import numpy as np
import pytest

from liodom.geometry import Pose, compose, rot_z, so3_log
from liodom.factors import (STATE_DIM, BiasWalkFactor, ExtrinsicsWalkFactor,
                            ImuFactor, LidarRelativeFactor,
                            LinearizedPriorFactor, PriorPoseFactor)
from liodom.preintegration import ImuBias, ImuNoiseParams, integrate_window
from liodom.scan_matching import Gap, RelativePoseMeasurement
from liodom.simworld import TrajectorySpec, simulate_imu
from liodom.smoother import FixedLagSmoother, WindowConfig

TINY = ImuNoiseParams(accel_noise_density=1e-8, gyro_noise_density=1e-8,
                      accel_bias_walk=1e-8, gyro_bias_walk=1e-8)


def smooth_trajectory(duration=10.0):
    tm = np.arange(0.0, duration + 0.5, 2.0)
    pos = np.stack([0.8 * np.sin(0.4 * tm), 0.5 * tm,
                    1.0 + 0.1 * np.sin(0.3 * tm)], axis=1)
    yaw = 0.3 * np.sin(0.5 * tm)
    return TrajectorySpec(tm, pos, yaw)


def make_sequence(duration=10.0, kf_dt=0.5, extr=None, rate=200.0,
                  noise=TINY, lidar_cov=1e-6):
    """Noiseless IMU samples, exact lidar relative measurements, and ground
    truth poses at the keyframe times."""
    traj = smooth_trajectory(duration)
    extr = extr or Pose(np.eye(3), np.zeros(3), "B", "L")
    samples = simulate_imu(traj, noise, ImuBias(), rate)
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


def feed(sm, samples, gt, lidar, marginalize=True, noise=TINY, optimize=True):
    times = np.array([s.timestamp for s in samples])
    trace = []
    for k, (t, _) in enumerate(gt):
        if k == 0:
            sm.add_keyframe(t, None, None)
        else:
            t_prev = gt[k - 1][0]
            i0 = max(int(np.searchsorted(times, t_prev, "right")) - 1, 0)
            i1 = int(np.searchsorted(times, t, "left"))
            delta = integrate_window(samples[i0:i1], t_prev, t,
                                     sm.latest.bias, noise)
            sm.add_keyframe(t, delta, lidar[k - 1])
        if optimize:
            sm.optimize()
        if marginalize:
            sm.marginalize()
        trace.append((t, sm.latest.pose_WB()))
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


@pytest.mark.parametrize("lag, prior_kind", [(1e9, PriorPoseFactor),
                                              (1.0, LinearizedPriorFactor)])
def test_assemble_matches_dense_jacobian_oracle(lag, prior_kind):
    """H, g and cost equal J^T J, J^T r and r^T r of the dense stacked
    whitened Jacobian, with the states placed in permuted blocks as
    marginalize places them."""
    noise = ImuNoiseParams(accel_noise_density=1e-3, gyro_noise_density=1e-4,
                           accel_bias_walk=1e-5, gyro_bias_walk=1e-5)
    samples, gt, lidar = make_sequence(duration=3.0, noise=noise,
                                       lidar_cov=1e-4)
    sm = FixedLagSmoother(WindowConfig(lag=lag), noise,
                          Pose(np.eye(3), np.zeros(3), "B", "L"))
    # assembled at the IMU-predicted states; no solve is needed
    feed(sm, samples, gt, lidar, noise=noise, optimize=False)
    kinds = {type(f) for f in sm.factors}
    assert {ImuFactor, BiasWalkFactor, ExtrinsicsWalkFactor,
            LidarRelativeFactor, prior_kind} <= kinds
    n = len(sm.states)
    pos = {i: k for k, i in enumerate(np.random.default_rng(0).permutation(n))}
    H, g, cost = sm._assemble(sm.factors, pos, n)

    rows, res = [], []
    for f in sm.factors:
        wr, wJ = f.whitened(sm.states)
        J = np.zeros((len(wr), n * STATE_DIM))
        for i, Ji in wJ.items():
            J[:, pos[i] * STATE_DIM:(pos[i] + 1) * STATE_DIM] = Ji
        rows.append(J)
        res.append(wr)
    J, r = np.vstack(rows), np.concatenate(res)
    H_ref, g_ref = J.T @ J, J.T @ r
    assert np.allclose(H, H_ref, rtol=0, atol=1e-12 * np.abs(H_ref).max())
    assert np.allclose(g, g_ref, rtol=0, atol=1e-12 * np.abs(g_ref).max())
    assert cost == pytest.approx(r @ r, rel=1e-12)


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(lag=0.0)
