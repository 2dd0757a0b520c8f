"""Minimal SO(3) algebra and rigid poses shared by the whole pipeline.

Rotations are stored as 3x3 orthonormal numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FrameMismatchError(ValueError):
    """Raised when composing poses whose frames do not chain."""


class NonPrincipalBranchError(ArithmeticError):
    """Raised by so3_log() when the rotation angle is at (or beyond) pi."""


_I3 = np.eye(3)
# skew(v) picks its entries from [0, x, y, z, -x, -y, -z]
_SKEW = np.array([[0, 6, 2], [3, 0, 4], [5, 1, 0]])
_LOG_ROWS, _LOG_COLS = np.array([2, 0, 1]), np.array([1, 2, 0])


# The SO(3) functions below take one vector (3,) or matrix (3, 3), or a stack
# of them (..., 3) or (..., 3, 3), and choose the small-angle branch per
# element. On a stack each element gets exactly the bits it gets alone: norms
# go through np.vecdot, which rounds as np.linalg.norm of one vector does,
# and powers through np.float_power, which rounds as the scalar `**` does.


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float)
    entries = np.concatenate([np.zeros(v.shape[:-1] + (1,)), v, -v], axis=-1)
    return entries.take(_SKEW, axis=-1)


def _angle(phi: np.ndarray, threshold: float):
    """The mask of rotation vectors shorter than threshold, and their angle
    with 1 added to those: the closed-form branch stays finite there and
    raises no warning, and the Taylor branch replaces its result."""
    angle = np.sqrt(np.vecdot(phi, phi))
    small = angle < threshold
    return small, angle + small


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: axis-angle vector to rotation matrix."""
    phi = np.asarray(phi, dtype=float)
    small, a = _angle(phi, 1e-8)
    c1 = np.sin(a) / a
    c2 = (1.0 - np.cos(a)) / np.float_power(a, 2)
    if small.any():
        # 2nd-order Taylor keeps orthonormality to machine precision
        c1, c2 = np.where(small, 1.0, c1), np.where(small, 0.5, c2)
    K = skew(phi)
    return _I3 + c1[..., None, None] * K + c2[..., None, None] * (K @ K)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to axis-angle vector (principal branch only)."""
    R = np.asarray(R, dtype=float)
    trace = np.minimum(np.maximum(
        (R.trace(axis1=-2, axis2=-1) - 1.0) * 0.5, -1.0), 1.0)
    angle = np.arccos(trace)
    if (angle > np.pi - 1e-6).any():
        raise NonPrincipalBranchError(
            f"rotation angle {np.max(angle):.9f} too close to pi for "
            "principal-branch log")
    # [R21 - R12, R02 - R20, R10 - R01]
    w = (R - np.swapaxes(R, -1, -2))[..., _LOG_ROWS, _LOG_COLS]
    small = angle < 1e-8
    a = angle + small
    c = a / (2.0 * np.sin(a))
    if small.any():
        c = np.where(small, 0.5, c)
    return c[..., None] * w


def so3_right_jacobian(phi: np.ndarray) -> np.ndarray:
    """Right Jacobian of SO(3): Exp(phi + dphi) ~ Exp(phi) Exp(Jr dphi)."""
    phi = np.asarray(phi, dtype=float)
    small, a = _angle(phi, 1e-6)
    c1 = ((1.0 - np.cos(a)) / np.float_power(a, 2))[..., None, None]
    c2 = ((a - np.sin(a)) / np.float_power(a, 3))[..., None, None]
    K = skew(phi)
    KK = K @ K
    t1, t2 = c1 * K, c2 * KK
    if small.any():
        small = small[..., None, None]
        t1, t2 = np.where(small, 0.5 * K, t1), np.where(small, KK / 6.0, t2)
    return _I3 - t1 + t2


def so3_right_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    small, a = _angle(phi, 1e-6)
    cot_half = a * np.cos(a * 0.5) / (2.0 * np.sin(a * 0.5))
    c2 = ((1.0 - cot_half) / np.float_power(a, 2))[..., None, None]
    K = skew(phi)
    KK = K @ K
    t2 = c2 * KK
    if small.any():
        t2 = np.where(small[..., None, None], KK / 12.0, t2)
    return _I3 + 0.5 * K + t2


def rot_z(a: float | np.ndarray) -> np.ndarray:
    """Rotation about z by `a`; an array of angles gives a stack of shape
    `a.shape + (3, 3)`."""
    c, s = np.cos(a), np.sin(a)
    R = np.zeros(np.shape(a) + (3, 3))
    R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1] = c, -s, s, c
    R[..., 2, 2] = 1.0
    return R


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Quaternion [x, y, z, w] to rotation matrix."""
    x, y, z, w = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def rot_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to quaternion [x, y, z, w], w >= 0."""
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s, 0.25 * s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(1.0 + R[i, i] - R[j, j] - R[k, k]) * 2.0
        q = np.empty(4)
        q[i] = 0.25 * s
        q[j] = (R[j, i] + R[i, j]) / s
        q[k] = (R[k, i] + R[i, k]) / s
        q[3] = (R[k, j] - R[j, k]) / s
    if q[3] < 0:
        q = -q
    return q / np.linalg.norm(q)


@dataclass(frozen=True)
class Pose:
    """Rigid transform mapping points in frame_child to frame_parent."""

    rotation: np.ndarray
    translation: np.ndarray
    frame_parent: str | None = None
    frame_child: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float).reshape(3))

    @staticmethod
    def identity(frame: str | None = None) -> "Pose":
        return Pose(np.eye(3), np.zeros(3), frame, frame)

    def inverse(self) -> "Pose":
        return Pose(self.rotation.T, -self.rotation.T @ self.translation,
                    self.frame_child, self.frame_parent)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to a point (3,) or array of points (N, 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    """Chain two transforms: result maps b.frame_child into a.frame_parent."""
    if (a.frame_child is not None and b.frame_parent is not None
            and a.frame_child != b.frame_parent):
        raise FrameMismatchError(
            f"cannot compose: {a.frame_child!r} != {b.frame_parent!r}")
    return Pose(a.rotation @ b.rotation,
                a.rotation @ b.translation + a.translation,
                a.frame_parent, b.frame_child)

