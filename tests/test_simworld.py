import json
import os

import numpy as np
import pytest

from liodom.evalkit import load_tum
from liodom.geometry import (Pose, quat_to_rot, rot_to_quat, rot_z, so3_exp,
                             so3_log)
from liodom.preintegration import ImuBias, ImuNoiseParams
from liodom.simworld import (LidarModel, Patch, Preset, TrajectorySpec,
                             WorldModel, box, corridor_world, generate_dataset,
                             make_preset, PRESET_NAMES, raycast_batch,
                             room, simulate_imu, simulate_scan,
                             wheel_inertial_trajectory)

NOISE = ImuNoiseParams()


def raycast_one(world, origin, direction, max_range):
    """Nearest hit of one ray through raycast_batch, or None on a miss."""
    hits, patch = raycast_batch(world, np.asarray(origin, float),
                                np.asarray(direction, float)[None, :],
                                max_range)
    return hits[0] if patch[0] >= 0 else None


def test_patch_normal_is_unit_cross_product():
    p = Patch([0, 0, 0], [2, 0, 0], [0, 3, 0])
    assert np.allclose(p.normal, [0, 0, 1])
    assert p.len1 == pytest.approx(2.0)
    assert p.len2 == pytest.approx(3.0)


def test_box_normals_point_outward():
    for p in box([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]):
        center_to_face = (p.corner + 0.5 * p.e1 + 0.5 * p.e2) - [1.0, 2.0, 3.0]
        assert p.normal @ center_to_face > 0


def test_room_normals_point_inward():
    for p in room([0, 0, 0], [4.0, 4.0, 4.0]):
        center_to_face = p.corner + 0.5 * p.e1 + 0.5 * p.e2
        assert p.normal @ center_to_face < 0


def test_raycast_analytic_oracle():
    world = WorldModel([Patch([2.0, -1.0, -1.0], [0, 2.0, 0], [0, 0, 2.0])])
    hit = raycast_one(world, np.zeros(3), np.array([1.0, 0, 0]), 10.0)
    assert np.allclose(hit, [2.0, 0, 0])
    # oblique ray: distance = 2 / cos(angle)
    d = np.array([np.cos(0.3), np.sin(0.3), 0.0])
    hit = raycast_one(world, np.zeros(3), d, 10.0)
    assert np.linalg.norm(hit) == pytest.approx(2.0 / np.cos(0.3))


def test_raycast_miss_cases():
    world = WorldModel([Patch([2.0, -1.0, -1.0], [0, 2.0, 0], [0, 0, 2.0])])
    assert raycast_one(world, np.zeros(3), np.array([-1.0, 0, 0]), 10.0) is None
    assert raycast_one(world, np.zeros(3), np.array([1.0, 0, 0]), 1.5) is None
    # ray passes outside the finite patch
    assert raycast_one(world, np.array([0, 5.0, 0]), np.array([1.0, 0, 0]), 10.0) is None


def test_raycast_picks_nearest_patch():
    world = WorldModel([
        Patch([4.0, -1.0, -1.0], [0, 2.0, 0], [0, 0, 2.0]),
        Patch([2.0, -1.0, -1.0], [0, 2.0, 0], [0, 0, 2.0]),
    ])
    hit = raycast_one(world, np.zeros(3), np.array([1.0, 0, 0]), 10.0)
    assert hit[0] == pytest.approx(2.0)


def test_raycast_batch_matches_single():
    rng = np.random.default_rng(0)
    world = corridor_world(rng)
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origin = np.array([5.0, 0.0, 1.0])
    pts, patch = raycast_batch(world, origin, dirs, 8.0)
    assert (patch >= 0).any()
    for i in range(len(dirs)):
        single = raycast_one(world, origin, dirs[i], 8.0)
        if patch[i] >= 0:
            assert np.allclose(pts[i], single, atol=1e-9)
            hit = world.patches[patch[i]]
            assert np.linalg.norm(hit.normal) == pytest.approx(1.0)
            # the hit lies on its patch's plane, whose normal faces the
            # sensor: the corridor walls face in, the clutter boxes out
            assert abs((pts[i] - hit.corner) @ hit.normal) < 1e-9
            assert hit.normal @ (origin - pts[i]) > 0
        else:
            assert single is None
            assert np.array_equal(pts[i], np.zeros(3))


def test_raycast_rules_the_candidate_filter_keeps():
    """Rays are skipped only where they cannot change the result."""
    wall = [[2.0, -1.0, -1.0], [0, 2.0, 0], [0, 0, 2.0]]
    x = np.array([1.0, 0, 0])
    # coincident patches: the first in world order takes the tie
    twin = WorldModel([Patch(*wall), Patch(*wall)])
    _, patch = raycast_batch(twin, np.zeros(3), x[None, :], 10.0)
    assert patch[0] == 0
    # a hit exactly at max_range is kept
    one = WorldModel([Patch(*wall)])
    pts, patch = raycast_batch(one, np.zeros(3), x[None, :], 2.0)
    assert patch[0] == 0 and pts[0][0] == 2.0
    # a ray just outside a corner, within the inside test's 1e-9 slack, is
    # a hit, also from afar, where the patch's ball spans few directions
    for origin in ([0.0, 0, 0], [-40.0, 3.0, -5.0]):
        for corner in ([2.0, -1.0, -1.0], [2.0, 1.0, 1.0]):
            aim = np.array(corner) + 5e-10 * np.sign(corner) * [0, 1, 1]
            d = aim - origin
            pts, patch = raycast_batch(one, np.array(origin), d[None, :],
                                       100.0)
            assert patch[0] == 0
            assert np.allclose(pts[0], aim, atol=1e-9)
    # a ray parallel to the patch misses, even lying in its plane
    along = np.array([[0, 1.0, 0], [0, 0, 1.0]])
    for origin in ([0.0, 0, 0], [2.0, -2.0, -2.0]):
        pts, patch = raycast_batch(one, np.array(origin), along, 10.0)
        assert np.all(patch == -1) and not pts.any()


def test_scan_points_lie_on_world_surfaces():
    world = WorldModel(room([0, 0, 1.25], [6.0, 4.0, 2.5]))
    pose = Pose(rot_z(0.4), np.array([0.5, -0.3, 1.0]), "W", "L")
    model = LidarModel(range_noise_std=0.0)
    cloud = simulate_scan(world, pose, model)
    pts_w = cloud.points @ pose.rotation.T + pose.translation
    # every point satisfies one of the six plane equations
    dists = np.abs(np.stack([
        (pts_w - p.corner) @ p.normal for p in world.patches]))
    assert np.all(dists.min(axis=0) < 1e-9)
    # seen from inside the room, the normal of each hit patch faces the sensor
    hits, patch = raycast_batch(world, pose.translation,
                                model.directions @ pose.rotation.T,
                                model.max_range)
    mask = patch >= 0
    assert np.allclose(hits[mask], pts_w, atol=1e-9)
    normals = np.array([world.patches[i].normal for i in patch[mask]])
    assert np.all(np.einsum("ni,ni->n", normals,
                            pose.translation - hits[mask]) > 0)


def test_scan_noise_and_determinism():
    world = WorldModel(room([0, 0, 1.25], [6.0, 4.0, 2.5]))
    pose = Pose(np.eye(3), np.array([0, 0, 1.0]), "W", "L")
    model = LidarModel(range_noise_std=0.02)
    a = simulate_scan(world, pose, model, np.random.default_rng(1))
    b = simulate_scan(world, pose, model, np.random.default_rng(1))
    c = simulate_scan(world, pose, model, np.random.default_rng(2))
    assert np.allclose(a.points, b.points)
    assert not np.allclose(a.points, c.points)


def test_trajectory_interpolates_waypoints():
    times = [0.0, 1.0, 2.0, 3.0]
    pos = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    yaws = [0.0, 0.5, 1.0, 1.5]
    traj = TrajectorySpec(times, pos, yaws)
    for t, p, y in zip(times, pos, yaws):
        pose = traj.pose(t)
        assert np.allclose(pose.translation, p, atol=1e-12)
        assert np.allclose(pose.rotation, rot_z(y), atol=1e-12)
    assert traj.duration == pytest.approx(3.0)
    # clamped spline: zero velocity at both ends
    assert np.allclose(traj.velocity(0.0), 0.0, atol=1e-12)
    assert np.allclose(traj.velocity(3.0), 0.0, atol=1e-12)


def test_trajectory_rejects_non_increasing_times():
    with pytest.raises(ValueError):
        TrajectorySpec([0.0, 0.0], [[0, 0, 0], [1, 0, 0]], [0.0, 0.0])


def test_stationary_imu_reads_gravity_reaction():
    traj = TrajectorySpec([0.0, 1.0, 2.0, 3.0], [[0, 0, 1]] * 4, [0.0] * 4)
    samples = simulate_imu(traj, NOISE, ImuBias(), 100.0)
    for s in samples:
        assert np.allclose(s.accel, -ImuNoiseParams().gravity_W, atol=1e-9)
        assert np.allclose(s.gyro, 0.0, atol=1e-9)


def test_imu_dead_reckoning_reproduces_trajectory():
    """The synthesized samples are zero-order-hold consistent: Euler
    integration at the IMU rate recovers the spline exactly."""
    tm = np.arange(0.0, 8.1, 2.0)
    pos = np.stack([np.sin(0.5 * tm), 0.4 * tm, 1.0 + 0.1 * tm], axis=1)
    traj = TrajectorySpec(tm, pos, 0.3 * np.sin(tm))
    bias = ImuBias(accel_bias=[0.05, -0.02, 0.01], gyro_bias=[0.002, 0, -0.001])
    samples = simulate_imu(traj, NOISE, bias, 200.0)
    dt = 1.0 / 200.0
    R = traj.pose(0.0).rotation
    p = traj.pose(0.0).translation.copy()
    v = traj.velocity(0.0).copy()
    for s in samples:
        a_w = R @ (s.accel - bias.accel_bias) + ImuNoiseParams().gravity_W
        p = p + v * dt + 0.5 * a_w * dt**2
        v = v + a_w * dt
        R = R @ so3_exp((s.gyro - bias.gyro_bias) * dt)
    end = traj.pose(traj.times[-1])
    assert np.linalg.norm(p - end.translation) < 1e-5
    assert np.allclose(R, end.rotation, atol=1e-6)


def test_imu_noise_follows_the_stream_in_sample_order():
    """Sample k's noise is the seed's standard-normal draws 6k..6k+5 scaled:
    three for the accelerometer, then three for the gyro."""
    tm = np.arange(0.0, 3.1, 1.0)
    traj = TrajectorySpec(tm, np.stack([0.5 * tm, np.sin(tm), 1.0 + 0 * tm],
                                       axis=1), 0.4 * np.sin(tm))
    bias = ImuBias(accel_bias=[0.05, -0.02, 0.01], gyro_bias=[0.002, 0, -0.001])
    rate = 100.0
    clean = simulate_imu(traj, NOISE, bias, rate)
    noisy = simulate_imu(traj, NOISE, bias, rate, np.random.default_rng(4))
    z = np.random.default_rng(4).standard_normal(6 * len(clean))
    sa = NOISE.accel_noise_density * np.sqrt(rate)
    sg = NOISE.gyro_noise_density * np.sqrt(rate)
    assert len(noisy) == len(clean) == 300
    for k, (a, b) in enumerate(zip(noisy, clean)):
        assert a.timestamp == b.timestamp
        np.testing.assert_allclose(a.accel - b.accel, sa * z[6 * k:6 * k + 3],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.gyro - b.gyro, sg * z[6 * k + 3:6 * k + 6],
                                   rtol=0, atol=1e-12)


def test_wheel_inertial_analog_statistics():
    traj = TrajectorySpec([0.0, 2.0, 6.0, 10.0],
                          [[0, 0, 1], [0, 0, 1], [4, 0, 1], [4, 4, 1]],
                          [0.0, 0.0, 0.0, np.pi / 2])
    gt = [(float(t), traj.pose(float(t))) for t in np.arange(0.0, 10.0, 0.01)]
    wheel = wheel_inertial_trajectory(gt, seed=0)
    assert wheel[0][0] == gt[0][0]
    assert np.allclose(wheel[0][1].translation, gt[0][1].translation)
    # tracks the truth loosely but drifts, and stays planar
    err_end = np.linalg.norm(wheel[-1][1].translation - gt[-1][1].translation)
    assert 0.0 < err_end < 2.0
    zs = [p.translation[2] for _, p in wheel]
    assert np.ptp(zs) < 1e-9


def test_presets_all_constructible():
    for name in PRESET_NAMES:
        p = make_preset(name, seed=3)
        assert isinstance(p, Preset)
        assert p.traj.duration > 0
        # every preset starts near-stationary so the gravity bootstrap
        # sees (almost) pure gravity; C2 continuity leaks a little motion
        for t in (0.0, 0.1, 0.25):
            t_abs = p.traj.times[0] + t
            assert np.linalg.norm(p.traj.velocity(t_abs)) < 1e-2, name
            # yaw-only attitude: finite-difference body rate about z
            h = 1e-4
            dR = p.traj.pose(t_abs).rotation.T @ p.traj.pose(t_abs + h).rotation
            assert abs(so3_log(dR)[2] / h) < 1e-2, name


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        make_preset("warehouse", 0)


def test_world_json_roundtrip(tmp_path):
    world = corridor_world(np.random.default_rng(1))
    path = str(tmp_path / "world.json")
    world.to_json(path)
    with open(path) as f:
        back = [Patch(d["corner"], d["e1"], d["e2"])
                for d in json.load(f)["patches"]]
    assert len(back) == len(world.patches)
    for a, b in zip(world.patches, back):
        assert np.allclose(a.corner, b.corner)
        assert np.allclose(a.normal, b.normal)


def test_generate_dataset_layout_and_determinism(tmp_path):
    preset = make_preset("stationary", 0)
    d1 = generate_dataset(preset, 7, str(tmp_path / "a"))
    d2 = generate_dataset(preset, 7, str(tmp_path / "b"))
    d3 = generate_dataset(preset, 8, str(tmp_path / "c"))
    for d in (d1, d2, d3):
        assert os.path.isfile(os.path.join(d, "world.json"))
        assert os.path.isfile(os.path.join(d, "calib.txt"))
        assert os.path.isfile(os.path.join(d, "imu.csv"))
        assert os.path.isfile(os.path.join(d, "ground_truth.csv"))
        assert os.path.isfile(os.path.join(d, "wheel.csv"))
        assert os.path.isfile(os.path.join(d, "sensor.yaml"))
        assert len(os.listdir(os.path.join(d, "scans"))) > 0

    def read(d, rel):
        with open(os.path.join(d, rel), "rb") as f:
            return f.read()

    first_scan = sorted(os.listdir(os.path.join(d1, "scans")))[0]
    assert read(d1, "imu.csv") == read(d2, "imu.csv")
    assert read(d1, os.path.join("scans", first_scan)) \
        == read(d2, os.path.join("scans", first_scan))
    assert read(d1, "imu.csv") != read(d3, "imu.csv")


def test_wheel_csv_roundtrips_exactly(tmp_path):
    """wheel.csv carries the wheel-inertial poses built from the in-memory
    ground truth with every float exact: times and positions read back
    bit-equal, and rotations equal what their written quaternion gives.
    The wheel seed is 9173 whatever the dataset seed."""
    preset = make_preset("corridor", 0)
    preset.traj.times = np.array([preset.traj.times[0], 3.0])
    d = generate_dataset(preset, 5, str(tmp_path / "ds"))
    gt = [(float(t), preset.traj.pose(float(t)))
          for t in np.arange(preset.traj.times[0], preset.traj.times[-1], 0.01)]
    expected = wheel_inertial_trajectory(gt, 9173)
    loaded = load_tum(os.path.join(d, "wheel.csv"))
    assert len(loaded) == len(expected) > 100
    for (t, pose), (t_ref, ref) in zip(loaded, expected):
        assert t == t_ref
        assert np.array_equal(pose.translation, ref.translation)
        assert np.array_equal(pose.rotation,
                              quat_to_rot(rot_to_quat(ref.rotation)))
