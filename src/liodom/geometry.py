"""Minimal SO(3) algebra and rigid poses shared by the whole pipeline.

Rotations are stored as 3x3 orthonormal numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


class FrameMismatchError(ValueError):
    """Raised when composing poses whose frames do not chain."""


class NonPrincipalBranchError(ValueError):
    """Raised by so3_log() when the rotation angle is at (or beyond) pi."""


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: axis-angle vector to rotation matrix."""
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    K = skew(phi)
    if angle < 1e-8:
        # 2nd-order Taylor keeps orthonormality to machine precision
        return np.eye(3) + K + 0.5 * (K @ K)
    return (
        np.eye(3)
        + (np.sin(angle) / angle) * K
        + ((1.0 - np.cos(angle)) / angle**2) * (K @ K)
    )


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to axis-angle vector (principal branch only)."""
    trace = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    angle = np.arccos(trace)
    if angle > np.pi - 1e-6:
        raise NonPrincipalBranchError(
            f"rotation angle {angle:.9f} too close to pi for principal-branch log"
        )
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle < 1e-8:
        return 0.5 * w
    return (angle / (2.0 * np.sin(angle))) * w


def so3_right_jacobian(phi: np.ndarray) -> np.ndarray:
    """Right Jacobian of SO(3): Exp(phi + dphi) ~ Exp(phi) Exp(Jr dphi)."""
    angle = np.linalg.norm(phi)
    K = skew(phi)
    if angle < 1e-6:
        return np.eye(3) - 0.5 * K + (K @ K) / 6.0
    return (
        np.eye(3)
        - ((1.0 - np.cos(angle)) / angle**2) * K
        + ((angle - np.sin(angle)) / angle**3) * (K @ K)
    )


def so3_right_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    angle = np.linalg.norm(phi)
    K = skew(phi)
    if angle < 1e-6:
        return np.eye(3) + 0.5 * K + (K @ K) / 12.0
    cot_half = angle * np.cos(angle * 0.5) / (2.0 * np.sin(angle * 0.5))
    return np.eye(3) + 0.5 * K + ((1.0 - cot_half) / angle**2) * (K @ K)


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


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

