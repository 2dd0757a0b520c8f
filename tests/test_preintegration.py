import numpy as np
import pytest

from liodom.factors import STATE_DIM, ImuFactor, StateNode
from liodom.geometry import so3_exp
from liodom.preintegration import (ImuBias, ImuNoiseParams, ImuSample,
                                   PreintegratedDelta, correct_for_bias,
                                   integrate_window, load_imu_csv, predict,
                                   save_imu_csv)

NOISE = ImuNoiseParams()
GRAVITY_W = NOISE.gravity_W


def synth_samples(rng, n=100, dt=0.005, bias=None):
    bias = bias or ImuBias()
    samples = []
    for i in range(n):
        samples.append(ImuSample(
            i * dt,
            rng.normal(scale=2.0, size=3) + bias.accel_bias,
            rng.normal(scale=0.5, size=3) + bias.gyro_bias))
    return samples


def integrate_all(samples, dt):
    """integrate_window at zero bias over all of samples, each held for dt."""
    return integrate_window(samples, samples[0].timestamp,
                            samples[-1].timestamp + dt, ImuBias(), NOISE)


def dense_oracle(samples, dt, bias):
    """Straightforward dense Euler integration of the delta quantities."""
    dR = np.eye(3)
    dv = np.zeros(3)
    dp = np.zeros(3)
    for s in samples:
        a = s.accel - bias.accel_bias
        w = s.gyro - bias.gyro_bias
        dp = dp + dv * dt + 0.5 * dR @ a * dt**2
        dv = dv + dR @ a * dt
        dR = dR @ so3_exp(w * dt)
    return dR, dv, dp


def test_delta_matches_dense_integration_oracle():
    rng = np.random.default_rng(0)
    dt = 0.005
    samples = synth_samples(rng, n=200, dt=dt)
    d = integrate_all(samples, dt)
    dR, dv, dp = dense_oracle(samples, dt, ImuBias())
    assert np.allclose(d.dR, dR, atol=1e-6)
    assert np.allclose(d.dv, dv, atol=1e-6)
    assert np.allclose(d.dp, dp, atol=1e-6)
    assert d.dt_total == pytest.approx(len(samples) * dt)


def test_integrate_window_time_splitting():
    """Edge samples are split so the window integrates exactly [t0, t1)."""
    samples = [ImuSample(0.0, [1.0, 0, 0], np.zeros(3)),
               ImuSample(0.1, [1.0, 0, 0], np.zeros(3)),
               ImuSample(0.2, [1.0, 0, 0], np.zeros(3))]
    d = integrate_window(samples, 0.05, 0.25, ImuBias(), NOISE)
    assert d.dt_total == pytest.approx(0.2)
    assert d.dv[0] == pytest.approx(0.2, abs=1e-12)


def test_integrate_rejects_non_positive_dt():
    with pytest.raises(ValueError):
        integrate_window([], 1.0, 1.0, ImuBias(), NOISE)


def test_noise_params_validation():
    with pytest.raises(ValueError):
        ImuNoiseParams(accel_noise_density=0.0)


def test_covariance_symmetric_psd_and_growing():
    rng = np.random.default_rng(1)
    samples = synth_samples(rng, n=50)
    prev_trace = 0.0
    for m in range(1, len(samples) + 1):
        C = integrate_all(samples[:m], 0.005).covariance
        assert np.allclose(C, C.T)
        assert np.all(np.linalg.eigvalsh(C) > -1e-18)
        assert np.trace(C) > prev_trace
        prev_trace = np.trace(C)


def test_bias_correction_matches_reintegration_first_order():
    """correct_for_bias on a small bias change must agree with re-integrating
    at the new bias to first order."""
    rng = np.random.default_rng(2)
    dt = 0.005
    samples = synth_samples(rng, n=100, dt=dt)
    d = integrate_all(samples, dt)
    db = 1e-4
    b1 = ImuBias(accel_bias=[db, -db, db], gyro_bias=[-db, db, db])
    corrected = correct_for_bias(d, b1)
    dR, dv, dp = dense_oracle(samples, dt, b1)
    assert np.allclose(corrected.dR, dR, atol=1e-6)
    assert np.allclose(corrected.dv, dv, atol=1e-6)
    assert np.allclose(corrected.dp, dp, atol=1e-6)


def test_bias_correction_warns_on_large_update():
    d = PreintegratedDelta()
    with pytest.warns(UserWarning):
        correct_for_bias(d, ImuBias(accel_bias=[0.5, 0, 0]))


def test_stationary_prediction_drift():
    """A stationary IMU reading pure gravity must predict < 1e-6 m motion
    over one second."""
    dt = 1.0 / 200.0
    d = integrate_all([ImuSample(i * dt, -GRAVITY_W, np.zeros(3))
                       for i in range(200)], dt)
    R0 = np.eye(3)
    R1, p1, v1 = predict(R0, np.zeros(3), np.zeros(3), d, GRAVITY_W)
    assert np.linalg.norm(p1) < 1e-6
    assert np.linalg.norm(v1) < 1e-6
    assert np.allclose(R1, np.eye(3), atol=1e-9)


def imu_factor(R_i, p_i, v_i, bias_i, R_j, p_j, v_j, d):
    """An ImuFactor on two states holding the given quantities; the
    extrinsics and state j's bias do not enter its residual."""
    si = StateNode(0.0, R_i, p_i, v_i, bias_i, np.eye(3), np.zeros(3))
    sj = StateNode(d.dt_total, R_j, p_j, v_j, ImuBias(), np.eye(3), np.zeros(3))
    return ImuFactor(0, 1, d, GRAVITY_W), [si, sj]


def test_residual_zero_at_predicted_state():
    rng = np.random.default_rng(3)
    d = integrate_all(synth_samples(rng, n=60), 0.005)
    R_i = so3_exp(rng.uniform(-1, 1, 3))
    p_i = rng.normal(size=3)
    v_i = rng.normal(size=3)
    R_j, p_j, v_j = predict(R_i, p_i, v_i, d, GRAVITY_W)
    f, states = imu_factor(R_i, p_i, v_i, ImuBias(), R_j, p_j, v_j, d)
    assert np.allclose(f.residual(states), 0.0, atol=1e-10)


def finite_difference_jacobians(f, states, eps=1e-6):
    """Central differences under the same perturbation conventions as the
    analytic Jacobians: right rotation perturbation, additive vectors."""
    J = {}
    for i in f.indices:
        cols = []
        for k in range(STATE_DIM):
            e = np.zeros(STATE_DIM); e[k] = eps
            sp, sm = list(states), list(states)
            sp[i], sm[i] = states[i].retract(e), states[i].retract(-e)
            cols.append((f.residual(sp) - f.residual(sm)) / (2 * eps))
        J[i] = np.stack(cols, axis=1)
    return J


def test_residual_jacobians_match_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(5):
        d = integrate_all(synth_samples(rng, n=40), 0.005)
        R_i = so3_exp(rng.uniform(-1, 1, 3))
        p_i = rng.normal(size=3)
        v_i = rng.normal(size=3)
        bias_i = ImuBias(rng.normal(scale=0.01, size=3),
                         rng.normal(scale=0.01, size=3))
        R_jp, p_jp, v_jp = predict(R_i, p_i, v_i, d, GRAVITY_W)
        # evaluate off the zero-residual point
        R_j = R_jp @ so3_exp(rng.normal(scale=0.02, size=3))
        p_j = p_jp + rng.normal(scale=0.05, size=3)
        v_j = v_jp + rng.normal(scale=0.05, size=3)
        f, states = imu_factor(R_i, p_i, v_i, bias_i, R_j, p_j, v_j, d)
        _, J = f.evaluate(states, True)
        J_fd = finite_difference_jacobians(f, states)
        # each 9x3 block of each state, scaled on its own
        for i in f.indices:
            for k in range(0, STATE_DIM, 3):
                a, b = J[i][:, k:k + 3], J_fd[i][:, k:k + 3]
                scale = max(np.abs(b).max(), 1.0)
                assert np.allclose(a, b, atol=1e-5 * scale), (i, k)


def test_imu_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    samples = synth_samples(rng, n=20)
    path = str(tmp_path / "imu.csv")
    save_imu_csv(samples, path)
    back = load_imu_csv(path)
    assert len(back) == 20
    assert np.allclose([s.timestamp for s in back],
                       [s.timestamp for s in samples], atol=1e-8)
    assert np.allclose(back[7].accel, samples[7].accel, atol=1e-8)


def test_imu_csv_rejects_non_monotonic(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("timestamp,ax,ay,az,gx,gy,gz\n"
                    "0.0,0,0,0,0,0,0\n0.0,0,0,0,0,0,0\n")
    with pytest.raises(ValueError):
        load_imu_csv(str(path))
