"""Run one benchmark workload in-process, check its outputs, and score it.

A run sets the workload up several times (simulate the dataset, load it),
then replays it through `liodom.pipeline.run_pipeline`: twice, and again
while another whole replay still fits in the run's seconds. Scans are
processed back to back, as a batch replay (a closed loop with one client).
Untraced, the only timing hook is a `perf_counter` stamp when the pipeline
loads each scan, so scan latency k is the time between the loads of scans k
and k+1 (for the last scan, until `run_pipeline` returns). A traced run adds
one traced replay after an untraced one and reports per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback

import numpy as np

from liodom import evalkit, pipeline, smoother
from liodom.config import PipelineConfig

from tracing import Tracer, instrument, layer_metrics
from workloads import Workload, scan_times, setup

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 3
# the host's speed drifts over seconds to minutes; a second replay, some
# time after the first, halved the spread of the latency metrics
MIN_REPLAYS = 2
MAX_DT = 0.06              # s, association window of the accuracy metrics
REFERENCE_TOL = 1e-6       # m or rad, the trajectory gate of later changes
OUTPUT_FILES = ("trajectory_lio.txt", "trajectory_scan_to_scan.txt",
                "trajectory_wheel.txt", "trajectory_unified.txt",
                "observability.csv", "switches.csv", "extrinsics.csv")


class CheckFailed(Exception):
    pass


def replay(dataset_dir: str, out_dir: str, tracer: Tracer | None = None) -> dict:
    """One pass of the pipeline over the dataset, timed per scan."""
    stamps, healthy = [], []
    load_csv, optimize = pipeline.load_csv, smoother.FixedLagSmoother.optimize

    def stamped_load(*args, **kwargs):
        stamps.append(time.perf_counter())
        return load_csv(*args, **kwargs)

    def health_probe(self):
        cost = optimize(self)
        healthy.append(self.healthy)
        return cost

    # the probe reads the smoother's health flag once per scan; it takes no time
    pipeline.load_csv = stamped_load
    smoother.FixedLagSmoother.optimize = health_probe
    try:
        if tracer is None:
            t0 = time.perf_counter()
            pipeline.run_pipeline(dataset_dir, PipelineConfig(), out_dir)
            t1 = time.perf_counter()
        else:
            with instrument(tracer):
                t0 = time.perf_counter()
                pipeline.run_pipeline(dataset_dir, PipelineConfig(), out_dir)
                t1 = time.perf_counter()
    finally:
        pipeline.load_csv = load_csv
        smoother.FixedLagSmoother.optimize = optimize
    return {"latency_ms": 1e3 * np.diff(stamps + [t1]), "wall_s": t1 - t0,
            "end": t1, "healthy": healthy}


# ---------------------------------------------------------------- checks


def score(dataset_dir: str, out_dir: str) -> dict:
    """Accuracy of one pass (the `liodom eval` convention: rigid-start,
    max-dt 0.06 s) and its failure count; raises CheckFailed on bad output."""
    for name in OUTPUT_FILES:
        if not os.path.isfile(os.path.join(out_dir, name)):
            raise CheckFailed(f"missing output {name}")
    n_scans = len(os.listdir(os.path.join(dataset_dir, "scans")))
    trajs = {}
    for name in ("lio", "scan_to_scan", "unified"):
        traj = evalkit.load_tum(os.path.join(out_dir, f"trajectory_{name}.txt"))
        if len(traj) != n_scans:
            raise CheckFailed(f"{name}: {len(traj)} poses for {n_scans} scans")
        for t, pose in traj:
            if not (np.all(np.isfinite(pose.translation))
                    and np.all(np.isfinite(pose.rotation))):
                raise CheckFailed(f"{name}: non-finite pose at t={t:.3f}")
        trajs[name] = traj
    gt = evalkit.load_tum(os.path.join(dataset_dir, "ground_truth.csv"))

    def ev(name):
        return evalkit.evaluate(evalkit.associate(trajs[name], gt, MAX_DT),
                                "rigid-start")

    lio, s2s, unified = ev("lio"), ev("scan_to_scan"), ev("unified")
    if lio.rmse_position > lio.path_length:
        raise CheckFailed(f"LIO error {lio.rmse_position:.3f} m exceeds the "
                          f"{lio.path_length:.3f} m travelled: diverged")
    with open(os.path.join(dataset_dir, "calib.txt")) as f:
        true_t = np.array([float(x) for x in f.read().split()[:3]])
    with open(os.path.join(out_dir, "extrinsics.csv")) as f:
        last = f.read().strip().splitlines()[-1].split(",")
    extr_t = np.array([float(x) for x in last[1:4]])
    with open(os.path.join(out_dir, "switches.csv")) as f:
        switches = len(f.read().strip().splitlines()) - 1
    return {
        "lio_ate_m": lio.rmse_position, "lio_rot_rad": lio.rmse_attitude,
        "lio_drift_pct": lio.percent_drift, "s2s_ate_m": s2s.rmse_position,
        "unified_ate_m": unified.rmse_position,
        "extr_err_m": float(np.linalg.norm(extr_t - true_t)),
        "extr_t": extr_t.tolist(), "switches": switches,
    }


def same_outputs(a: str, b: str) -> bool:
    for name in OUTPUT_FILES:
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


FINGERPRINT = ("lio_ate_m", "lio_rot_rad", "s2s_ate_m", "unified_ate_m",
               "extr_err_m", "switches")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def check_reference(workload: Workload, seed: int, acc: dict) -> str:
    """Compare a pass with the recorded run of this workload at this seed."""
    ref = load_reference().get(workload.name, {})
    if ref.get("scans") != workload.scans or str(seed) not in ref["seeds"]:
        return "no reference for this seed"
    rec = ref["seeds"][str(seed)]
    for key in FINGERPRINT:
        if abs(acc[key] - rec[key]) > REFERENCE_TOL:
            raise CheckFailed(f"{key}={acc[key]!r} differs from the reference "
                              f"run at seed {seed} ({rec[key]!r})")
    return "matches the reference run"


def record_reference(workload: Workload, seed: int, acc: dict) -> None:
    ref = load_reference()
    entry = ref.setdefault(workload.name, {"scans": workload.scans, "seeds": {}})
    if entry["scans"] != workload.scans:
        entry.update(scans=workload.scans, seeds={})
    entry["seeds"][str(seed)] = {k: acc[k] for k in FINGERPRINT}
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


# Accuracy of the whole presets at seed 0 (ROADMAP baseline: `liodom eval
# --max-dt 0.06`, rigid-start), reproduced to the printed digits
BASELINE = {
    "corridor": {"lio_ate_m": 2.447, "unified_ate_m": 0.386},
    "calib-offset": {"lio_ate_m": 0.073, "extr_t": (0.003, 0.098, 0.000)},
}
BASELINE_TOL = 0.002       # m: rounding to 3 digits plus thread-count effects


def check_full(workload: Workload, seed: int, work_root: str) -> bool:
    """Replay the whole preset once; at seed 0 compare with BASELINE."""
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        dataset, out = os.path.join(tmp, "dataset"), os.path.join(tmp, "out")
        setup(workload, seed, dataset, full=True)
        p = replay(dataset, out)
        try:
            acc = score(dataset, out)
        except CheckFailed as e:
            print(f"correctness check failed: {e}")
            return False
    print(f"# {workload.name}: whole '{workload.preset}' preset, seed {seed}, "
          f"{len(p['latency_ms'])} scans in {p['wall_s']:.1f} s")
    for key in ("lio_ate_m", "lio_drift_pct", "lio_rot_rad", "s2s_ate_m",
                "unified_ate_m", "extr_err_m", "switches"):
        print(f"{key:36s} {acc[key]:12.6g}")
    print(f"{'extrinsics_t_m':36s} " + " ".join(f"{x:.4f}" for x in acc["extr_t"]))
    print(f"{'failed_frac':36s} {np.mean(~np.asarray(p['healthy'])):12.6g}")
    expected = BASELINE.get(workload.name) if seed == 0 else None
    if not expected:
        print("# no baseline to compare with")
        return True
    ok = True
    for key, want in expected.items():
        got = np.asarray(acc[key])
        if np.any(np.abs(got - np.asarray(want)) > BASELINE_TOL):
            print(f"baseline check failed: {key} = {got} vs {want}")
            ok = False
    print("# matches the ROADMAP baseline" if ok else "# baseline check failed")
    return ok


# ---------------------------------------------------------------- runs


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_root: str, record: bool = False) -> dict:
    """One benchmark run; returns the result object the runner prints."""
    os.makedirs(work_root, exist_ok=True)
    notes = []
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        dataset = os.path.join(tmp, "dataset")
        gen_s, setup_s = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(dataset, ignore_errors=True)
            g, lo = setup(workload, seed, dataset)
            gen_s.append(g)
            setup_s.append(g + lo)
        times = scan_times(dataset)
        # latency is timed once the smoother's window has filled, after the
        # first `lag` seconds of data: the transient before it is paid once
        warmup = int(np.searchsorted(times, times[0] + PipelineConfig().window.lag))

        passes, outs = [], []
        start = time.perf_counter()
        tracer = None
        try:
            while True:
                out = os.path.join(tmp, f"out{len(passes)}")
                passes.append(replay(dataset, out))
                outs.append(out)
                elapsed = time.perf_counter() - start
                if trace or (len(passes) >= MIN_REPLAYS
                             and elapsed + passes[-1]["wall_s"] > seconds):
                    break
            if trace:
                tracer = Tracer()
                out = os.path.join(tmp, "out_traced")
                traced = replay(dataset, out, tracer)
                outs.append(out)
        except Exception:
            traceback.print_exc()
            print("correctness check failed: the pipeline raised")
            return failure(workload.scans)

        try:
            acc = score(dataset, outs[0])
            for other in outs[1:]:
                if not same_outputs(outs[0], other):
                    raise CheckFailed("a replay differs from the first one")
            notes.append(f"{len(outs)} replays, outputs identical")
            notes.append(check_reference(workload, seed, acc))
        except CheckFailed as e:
            print(f"correctness check failed: {e}")
            return failure(workload.scans)
        if record:
            record_reference(workload, seed, acc)
            notes.append("recorded as the reference run")

        latency = np.concatenate([p["latency_ms"][warmup:] for p in passes])
        healthy = np.concatenate([p["healthy"] for p in passes])
        attempted = len(healthy)
        # every scan ends in a pose (checked above); one from a window the
        # smoother marked unhealthy counts as failed
        failed = int(np.sum(~healthy))
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "scan_ms_p50": (float(np.percentile(latency, 50)), "ms"),
            "scan_ms_p90": (float(np.percentile(latency, 90)), "ms"),
            "rt_factor": (float(np.median(np.diff(times))) * len(latency)
                          / (1e-3 * latency.sum()), "x"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        quality = {
            "failed_frac": (failed / attempted, "ratio"),
            "lio_ate_m": (acc["lio_ate_m"], "m"),
            "lio_rot_rad": (acc["lio_rot_rad"], "rad"),
            "unified_ate_m": (acc["unified_ate_m"], "m"),
            "extr_err_m": (acc["extr_err_m"], "m"),
            "switches": (float(acc["switches"]), "count"),
        }
        if trace:
            trace_dir = os.path.join(work_root, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            spans_path = os.path.join(trace_dir, f"{workload.name}-seed{seed}.csv")
            tracer.write(spans_path)
            notes.append(f"{len(tracer.spans)} spans written to {spans_path}")
            metrics = layer_metrics(tracer, traced["end"], warmup)
            metrics["simworld.generate_dataset.s"] = (statistics.median(gen_s), "s")
            overhead = traced["wall_s"] - passes[0]["wall_s"]
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_frac"] = (overhead / passes[0]["wall_s"], "ratio")
            metrics.update(quality)
        notes.insert(0, f"{attempted} scans, {len(latency)} timed after the "
                        f"{warmup}-scan window fill")
        report(workload, seed, metrics if trace else {**metrics, **quality}, acc, notes)
        return {"correct": True, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def failure(attempted: int) -> dict:
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}}


def report(workload, seed, metrics, acc, notes) -> None:
    print(f"# {workload.name} (first {workload.scans} scans of "
          f"'{workload.preset}'), seed {seed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:12.6g} {unit}")
    print(f"{'s2s_ate_m':36s} {acc['s2s_ate_m']:12.6g} m")
    print(f"{'extrinsics_t_m':36s} " + " ".join(f"{x:.4f}" for x in acc["extr_t"]))
    for note in notes:
        print(f"# {note}")

