"""Scan-to-scan lidar odometry front-end.

Aligns consecutive scans with point-to-plane ICP seeded by a
gravity-aligned rotation guess from the IMU, and reports a relative pose
with a 6x6 covariance (ordering: rotation, translation) inflated along
geometrically degenerate directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, so3_exp
from .observability import EIG_FLOOR_REL
from .pointcloud import PointCloud, SpatialIndex

MIN_CLOUD_POINTS = 20
MIN_CORRESPONDENCES = 10
DEGENERACY_INFLATION = 100.0
# eigenvalue ratio (strongest / direction) at which the reported std along a
# translational direction starts growing: nearest-neighbor correspondences
# lock onto the sampling pattern in poorly constrained directions and report
# near-zero motion, so their information must be discounted rather than
# trusted, increasingly so as the direction becomes more ill-conditioned
DEGENERACY_KAPPA_SOFT = 2.0
# residual-based sigma^2 treats correspondences as independent, but normal
# estimation and surface sampling correlate them; empirically the estimate
# error is ~3x the naive standard deviation
CORRELATION_INFLATION = 9.0


@dataclass
class IcpParams:
    max_iterations: int = 30
    translation_epsilon: float = 1e-4        # m
    rotation_epsilon: float = 1e-4           # rad
    max_correspondence_distance: float = 0.3  # m
    normal_compat_angle: float = np.deg2rad(60.0)

    def __post_init__(self):
        # written so that NaN fails too
        if not all(x > 0 for x in (self.max_iterations, self.translation_epsilon,
                                   self.rotation_epsilon,
                                   self.max_correspondence_distance)):
            raise ValueError("ICP thresholds must be positive")


@dataclass
class RelativePoseMeasurement:
    transform: Pose                  # frame L_{k-1} <- L_k
    covariance: np.ndarray           # 6x6, [rotation, translation]
    timestamp_from: float
    timestamp_to: float
    iterations: int
    converged: bool


@dataclass
class Gap:
    """Marker emitted when a scan pair produced no usable measurement."""
    timestamp_from: float
    timestamp_to: float
    reason: str


def gravity_align_guess(imu_attitude: np.ndarray, extrinsics: Pose,
                        prev_attitude: np.ndarray) -> Pose:
    """Relative lidar-frame rotation implied by two IMU attitudes.

    Maps the body-frame relative rotation through the lidar-IMU extrinsic
    rotation; translation is left at zero.
    """
    R_rel_B = prev_attitude.T @ imu_attitude
    R_BL = extrinsics.rotation
    return Pose(R_BL.T @ R_rel_B @ R_BL, np.zeros(3))


def match(source: PointCloud, target: PointCloud, init: Pose,
          params: IcpParams) -> RelativePoseMeasurement:
    """Estimate the transform mapping source points into the target frame."""
    tgt = target.valid_subset() if target.has_normals else target
    if len(source) < MIN_CLOUD_POINTS or len(tgt) < MIN_CLOUD_POINTS:
        return _unconverged(init, source, target, 0)
    if not target.has_normals:
        raise ValueError("target cloud needs normals for plane-based matching")
    index = SpatialIndex(tgt)

    R = init.rotation.copy()
    t = init.translation.copy()
    src = source.points
    src_n = source.normals if source.has_normals else None
    cos_compat = np.cos(params.normal_compat_angle)

    iterations = 0
    converged = False
    for iterations in range(1, params.max_iterations + 1):
        x = src @ R.T + t
        dist, idx = index.nearest(x)
        keep = dist < params.max_correspondence_distance
        if src_n is not None:
            rotated_n = src_n @ R.T
            keep &= np.einsum("ni,ni->n", rotated_n, tgt.normals[idx]) > cos_compat
        if keep.sum() < MIN_CORRESPONDENCES:
            return _unconverged(Pose(R, t), source, target, iterations)
        xi, qi, ni = x[keep], tgt.points[idx[keep]], tgt.normals[idx[keep]]
        r = np.einsum("ni,ni->n", ni, xi - qi)
        J = np.hstack([np.cross(xi, ni), ni])
        cost = float(np.sum(r * r))

        # two distinct operands keep numpy on gemm; J.T @ J would take syrk,
        # which rounds differently and moves trajectories by ~1e-6 m
        H = J.T @ J.copy()
        g = J.T @ r
        try:
            delta = -np.linalg.solve(H + 1e-9 * np.trace(H) / 6.0 * np.eye(6), g)
        except np.linalg.LinAlgError:
            return _unconverged(Pose(R, t), source, target, iterations)

        # step halving keeps the cost monotone non-increasing
        step = 1.0
        for _ in range(6):
            R_try = so3_exp(step * delta[:3]) @ R
            t_try = t + step * delta[3:]
            x_try = src @ R_try.T + t_try
            r_try = np.einsum("ni,ni->n", ni, x_try[keep] - qi)
            cost_try = float(np.sum(r_try * r_try))
            if cost_try <= cost or step < 1.0 / 32:
                break
            step *= 0.5
        R, t = so3_exp(step * delta[:3]) @ R, t + step * delta[3:]

        if (np.linalg.norm(step * delta[3:]) < params.translation_epsilon
                and np.linalg.norm(step * delta[:3]) < params.rotation_epsilon):
            converged = True
            break

    covariance = _icp_covariance(H, cost, len(r))
    return RelativePoseMeasurement(
        transform=Pose(R, t),
        covariance=covariance,
        timestamp_from=target.timestamp,
        timestamp_to=source.timestamp,
        iterations=iterations,
        converged=converged,
    )


def _unconverged(T: Pose, source: PointCloud, target: PointCloud,
                 iterations: int) -> RelativePoseMeasurement:
    return RelativePoseMeasurement(T, np.eye(6) * 1e6, target.timestamp,
                                   source.timestamp, iterations, False)


def _icp_covariance(H: np.ndarray, cost: float, n_corr: int) -> np.ndarray:
    """sigma^2 H^-1 for the last iteration's H = J^T J and residual cost,
    with eigenvalue flooring, then std x100 along translational directions
    the scene does not constrain."""
    dof = max(n_corr - 6, 1)
    sigma2 = CORRELATION_INFLATION * max(cost / dof, 1e-8)
    lam, V = np.linalg.eigh(H)
    lam_floor = max(lam[-1], 1e-30) * EIG_FLOOR_REL
    inv_lam = 1.0 / np.maximum(lam, lam_floor)
    cov = sigma2 * (V * inv_lam[None, :]) @ V.T

    w_tt, v_tt = np.linalg.eigh(H[3:, 3:])
    ratios = max(w_tt[-1], 1e-30) / np.maximum(w_tt, 1e-30)
    # graduated discount: pattern locking biases the translation estimate
    # well before a direction becomes fully unobservable, so the reported
    # std grows continuously with how ill-conditioned each direction is
    # instead of switching at a hard threshold
    factors = np.clip((ratios / DEGENERACY_KAPPA_SOFT) ** 2,
                      1.0, DEGENERACY_INFLATION)
    for u, f in zip(v_tt.T, factors):
        if f > 1.0:
            U = np.concatenate([np.zeros(3), u])
            S = np.eye(6) + (f - 1.0) * np.outer(U, U)
            cov = S @ cov @ S.T
    # pattern locking biases the rotation estimate too (the same locked
    # correspondences vote on rotation), though more weakly than the
    # translation, so the rotation block gets the square root of the
    # strongest translational discount
    f_rot = float(np.sqrt(factors.max()))
    if f_rot > 1.0:
        cov[:3, :3] *= f_rot ** 2
    # drop the rotation-translation cross terms: they are only valid for
    # white residual noise, and in degenerate scenes they let the systematic
    # (pattern-locked) translation bias leak into the rotation estimate
    cov[:3, 3:] = 0.0
    cov[3:, :3] = 0.0
    return 0.5 * (cov + cov.T)
