"""Spans around the calls into each liodom layer, recorded from outside.

`instrument` replaces the layers' public functions and methods with timing
wrappers for the duration of a `with` block and restores them afterwards;
nothing in the program itself changes. Spans are kept in memory as
(name, scan, start, end, parent, info) rows and written out once, when the
run ends. `scan` is the index of the scan being processed, which is the
identifier every span of one scan shares.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from liodom import factors, pipeline, pointcloud, smoother, supervisor

NAME, SCAN, START, END, PARENT, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.scan = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        """Wrap fn so each call records a span; info(args, result) may attach
        a small tuple of counts to it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "io.load_csv":
                self.scan += 1
            span = [name, self.scan, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("name,scan,start_s,end_s,parent\n")
            for s in self.spans:
                f.write(f"{s[NAME]},{s[SCAN]},{s[START]:.9f},{s[END]:.9f},"
                        f"{s[PARENT]}\n")


def _optimize_info(args, result):
    sm = args[0]
    return len(sm.factors), len(sm.states), sm.healthy


def _normals_info(args, result):
    return len(result), float(np.mean(result.valid))


# (owner, attribute, span name, info)
TARGETS = (
    (pipeline, "load_csv", "io.load_csv", lambda a, r: (len(r),)),
    (pipeline, "voxel_downsample", "pointcloud.voxel_downsample", None),
    (pipeline, "estimate_normals", "pointcloud.estimate_normals", _normals_info),
    (pipeline, "assess", "observability.assess", lambda a, r: (r.warning,)),
    (pipeline, "integrate_window", "preintegration.integrate_window",
     lambda a, r: (len(a[0]),)),
    (pipeline, "match", "scan_matching.match",
     lambda a, r: (r.iterations, r.converged)),
    (pipeline, "_write_outputs", "io.write", None),
    (pointcloud.SpatialIndex, "__init__", "pointcloud.index_build", None),
    (pointcloud.SpatialIndex, "knn", "pointcloud.knn", None),
    (pointcloud.SpatialIndex, "nearest", "pointcloud.nearest", None),
    (smoother.FixedLagSmoother, "add_keyframe", "smoother.add_keyframe", None),
    (smoother.FixedLagSmoother, "optimize", "smoother.optimize", _optimize_info),
    (smoother.FixedLagSmoother, "total_cost", "smoother.total_cost", None),
    (smoother.FixedLagSmoother, "marginalize", "smoother.marginalize", None),
    (factors.Factor, "whitened", "factors.whitened", None),
    (factors.Factor, "cost", "factors.cost", None),
    (supervisor.Supervisor, "update", "supervisor.update", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers in TARGETS for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, name, info), (_, _, fn) in zip(TARGETS, saved):
            setattr(owner, attr, tracer.wrap(name, fn, info))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, pass_end: float,
                  first_scan: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over the scans from first_scan
    on, per scan unless named otherwise.

    Times are means per scan, so the layer times and the unattributed rest
    add up to the mean scan latency; optimize also gets its p50 and p90.
    """
    spans = tracer.spans
    n_scans = tracer.scan + 1 - first_scan
    dur = np.array([s[END] - s[START] for s in spans])
    scan = np.array([s[SCAN] for s in spans])
    parent = np.array([s[PARENT] for s in spans])
    names = np.array([s[NAME] for s in spans])
    timed = scan >= first_scan

    def sel(name):
        return (names == name) & timed

    def per_scan_ms(mask):
        return 1e3 * float(dur[mask].sum()) / n_scans

    def per_scan_count(mask):
        return float(mask.sum()) / n_scans

    def info(name):
        return [spans[i][INFO] for i in np.flatnonzero(sel(name))]

    opt = np.flatnonzero(sel("smoother.optimize"))
    opt_ms = 1e3 * dur[opt]
    child_of_opt = np.isin(parent, opt)
    opt_children = child_of_opt & (sel("smoother.total_cost") | sel("factors.whitened"))
    whitened_in_opt = np.bincount(
        np.searchsorted(opt, parent[child_of_opt & sel("factors.whitened")]),
        minlength=len(opt))
    opt_info = info("smoother.optimize")
    n_factors = np.array([i[0] for i in opt_info], float)

    loads = np.flatnonzero(sel("io.load_csv"))
    starts = np.array([spans[i][START] for i in loads] + [pass_end])
    latency = np.diff(starts)
    top = (parent == -1) & timed
    top_ms = 1e3 * np.bincount(scan[top] - first_scan, weights=dur[top],
                               minlength=n_scans)
    unattributed = 1e3 * latency - top_ms

    normals = info("pointcloud.estimate_normals")
    matches = info("scan_matching.match")
    windows = info("preintegration.integrate_window")
    return {
        "smoother.optimize.ms_p50": (float(np.percentile(opt_ms, 50)), "ms"),
        "smoother.optimize.ms_p90": (float(np.percentile(opt_ms, 90)), "ms"),
        "smoother.optimize.self_ms": (
            (opt_ms.sum() - 1e3 * dur[opt_children].sum()) / n_scans, "ms"),
        "smoother.total_cost.ms": (per_scan_ms(sel("smoother.total_cost")), "ms"),
        "smoother.cost_evals": (per_scan_count(sel("smoother.total_cost")), "count"),
        "smoother.gn_assemblies": (float(np.mean(whitened_in_opt / n_factors)), "count"),
        "smoother.marginalize.ms": (per_scan_ms(sel("smoother.marginalize")), "ms"),
        "smoother.add_keyframe.ms": (per_scan_ms(sel("smoother.add_keyframe")), "ms"),
        "smoother.window_states": (float(np.mean([i[1] for i in opt_info])), "count"),
        "smoother.healthy_frac": (float(np.mean([i[2] for i in opt_info])), "ratio"),
        "factors.whitened.ms": (per_scan_ms(sel("factors.whitened")), "ms"),
        "factors.whitened.calls": (per_scan_count(sel("factors.whitened")), "count"),
        "factors.cost.calls": (per_scan_count(sel("factors.cost")), "count"),
        "pointcloud.estimate_normals.ms": (
            per_scan_ms(sel("pointcloud.estimate_normals")), "ms"),
        "pointcloud.voxel_downsample.ms": (
            per_scan_ms(sel("pointcloud.voxel_downsample")), "ms"),
        "pointcloud.knn.ms": (per_scan_ms(sel("pointcloud.knn")), "ms"),
        "pointcloud.knn.calls": (per_scan_count(sel("pointcloud.knn")), "count"),
        "pointcloud.index_builds": (per_scan_count(sel("pointcloud.index_build")), "count"),
        "pointcloud.points_raw": (
            float(np.mean([i[0] for i in info("io.load_csv")])), "count"),
        "pointcloud.points_kept": (float(np.mean([i[0] for i in normals])), "count"),
        "pointcloud.normals_valid_frac": (
            float(np.mean([i[1] for i in normals])), "ratio"),
        "scan_matching.match.ms": (per_scan_ms(sel("scan_matching.match")), "ms"),
        "scan_matching.iterations": (float(np.mean([i[0] for i in matches])), "count"),
        "scan_matching.converged_frac": (
            float(np.mean([i[1] for i in matches])), "ratio"),
        "preintegration.integrate_window.ms": (
            per_scan_ms(sel("preintegration.integrate_window")), "ms"),
        "preintegration.samples": (float(np.mean([i[0] for i in windows])), "count"),
        "observability.assess.ms": (per_scan_ms(sel("observability.assess")), "ms"),
        "observability.warn_frac": (
            float(np.mean([i[0] for i in info("observability.assess")])), "ratio"),
        "supervisor.update.ms": (per_scan_ms(sel("supervisor.update")), "ms"),
        "io.load_csv.ms": (per_scan_ms(sel("io.load_csv")), "ms"),
        "io.write.ms": (1e3 * float(dur[sel("io.write")].sum()), "ms"),
        "pipeline.unattributed.ms": (float(np.mean(unattributed)), "ms"),
        "pipeline.unattributed.frac": (
            float(unattributed.sum() / (1e3 * latency.sum())), "ratio"),
    }
