"""Benchmark workloads: which simulator sequence each one replays, and set-up.

Each workload is the first `scans` scans of a simulator preset, generated
from the run's seed. The sequences are cut short so that one replay fits in
a benchmark run; `full=True` generates the whole preset instead, for the
accuracy check against the published baseline.

The run's seed drives the sensor noise (`generate_dataset`). The world, the
trajectory and the IMU biases come from `make_preset` with WORLD_SEED, so
seeds differ in noise only and the work per scan varies little between them;
the full sequences use the seed for both, as `liodom sim --seed` does.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from liodom import pipeline, simworld


WORLD_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    scans: int
    # LidarModel fields replacing the preset's sensor, and the IMU rate
    lidar: dict = field(default_factory=dict)
    imu_rate: float | None = None


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("corridor", "corridor", 120),
    Workload("calib-offset", "calib-offset", 150),
    Workload("room-dense", "room", 80,
             lidar={"n_azimuth": 900, "n_elevation": 16}, imu_rate=1000.0),
)}


def make_preset(workload: Workload, seed: int, full: bool = False):
    """The workload's preset at `seed`; unless `full`, its trajectory ends
    half a scan period after the last kept scan."""
    preset = simworld.make_preset(workload.preset, seed if full else WORLD_SEED)
    if workload.lidar:
        preset.lidar = dataclasses.replace(preset.lidar, **workload.lidar)
    if workload.imu_rate is not None:
        preset.imu_rate = workload.imu_rate
    if not full:
        # generate_dataset samples IMU, ground truth and scans over
        # [times[0], times[-1]); the spline itself is left untouched
        t0 = preset.traj.times[0]
        t_end = t0 + (workload.scans - 0.5) / preset.lidar.rate
        if t_end < preset.traj.times[-1]:
            preset.traj.times = np.array([t0, t_end])
    return preset


def setup(workload: Workload, seed: int, dataset_dir: str, full: bool = False):
    """Generate the dataset and load it back, as a user would before a run.

    Returns (generate seconds, load seconds)."""
    t0 = time.perf_counter()
    simworld.generate_dataset(make_preset(workload, seed, full), seed, dataset_dir)
    t1 = time.perf_counter()
    scans, _, _ = pipeline.load_dataset(dataset_dir)
    t2 = time.perf_counter()
    if not full and len(scans) != workload.scans:
        raise RuntimeError(f"{workload.name}: generated {len(scans)} scans, "
                           f"expected {workload.scans}")
    return t1 - t0, t2 - t1


def scan_times(dataset_dir: str) -> np.ndarray:
    """Scan timestamps in seconds, from the `<t_ns>.csv` file names."""
    return np.sort([int(f.split(".")[0]) for f in
                    os.listdir(os.path.join(dataset_dir, "scans"))]) * 1e-9
