"""Residuals and analytic Jacobians for the sliding-window estimator.

Each window state has a 21-dimensional tangent space laid out as
[theta(3), p(3), v(3), ba(3), bg(3), theta_ext(3), t_ext(3)].
Rotations retract on the right (R <- R Exp(theta)); everything else is
additive. Factors expose whitened residuals/Jacobians via their stored
covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import (Pose, skew, so3_exp, so3_log, so3_right_jacobian_inv)
from .preintegration import (ImuBias, PreintegratedDelta, GRAVITY_W,
                             residual as imu_residual,
                             residual_jacobians as imu_residual_jacobians)
from .scan_matching import RelativePoseMeasurement

STATE_DIM = 21
THETA, P, V, BA, BG, THETA_E, T_E = 0, 3, 6, 9, 12, 15, 18


@dataclass
class StateNode:
    """One sliding-window state: body pose, velocity, IMU biases, and the
    lidar-to-body extrinsic transform."""
    timestamp: float
    R_WB: np.ndarray
    p_WB: np.ndarray
    v_W: np.ndarray
    bias: ImuBias
    R_BL: np.ndarray
    p_BL: np.ndarray

    def copy(self) -> "StateNode":
        return StateNode(self.timestamp, self.R_WB.copy(), self.p_WB.copy(),
                         self.v_W.copy(), self.bias, self.R_BL.copy(),
                         self.p_BL.copy())

    def retract(self, delta: np.ndarray) -> "StateNode":
        return StateNode(
            self.timestamp,
            self.R_WB @ so3_exp(delta[THETA:THETA + 3]),
            self.p_WB + delta[P:P + 3],
            self.v_W + delta[V:V + 3],
            ImuBias(self.bias.accel_bias + delta[BA:BA + 3],
                    self.bias.gyro_bias + delta[BG:BG + 3]),
            self.R_BL @ so3_exp(delta[THETA_E:THETA_E + 3]),
            self.p_BL + delta[T_E:T_E + 3],
        )

    def local_coordinates(self, other: "StateNode") -> np.ndarray:
        """Tangent vector from self to other (inverse of retract to 1st order)."""
        d = np.zeros(STATE_DIM)
        d[THETA:THETA + 3] = so3_log(self.R_WB.T @ other.R_WB)
        d[P:P + 3] = other.p_WB - self.p_WB
        d[V:V + 3] = other.v_W - self.v_W
        d[BA:BA + 3] = other.bias.accel_bias - self.bias.accel_bias
        d[BG:BG + 3] = other.bias.gyro_bias - self.bias.gyro_bias
        d[THETA_E:THETA_E + 3] = so3_log(self.R_BL.T @ other.R_BL)
        d[T_E:T_E + 3] = other.p_BL - self.p_BL
        return d

    def pose_WB(self) -> Pose:
        return Pose(self.R_WB, self.p_WB, "W", "B")

    def extrinsics_BL(self) -> Pose:
        return Pose(self.R_BL, self.p_BL, "B", "L")


def sqrt_info_from_cov(cov: np.ndarray) -> np.ndarray:
    """Upper-triangular S with S^T S = cov^-1 (so ||S r||^2 = r^T cov^-1 r)."""
    cov = 0.5 * (cov + cov.T)
    n = cov.shape[0]
    # guard against exactly singular covariances from degeneracy inflation
    cov = cov + 1e-12 * np.trace(cov) / n * np.eye(n)
    L = np.linalg.cholesky(cov)
    return scipy.linalg.solve_triangular(L, np.eye(n), lower=True)


class Factor:
    """Base: residual(states) and jacobians(states) in raw (unwhitened) form."""

    indices: tuple[int, ...]
    sqrt_info: np.ndarray

    def residual(self, states: list[StateNode]) -> np.ndarray:
        raise NotImplementedError

    def jacobians(self, states: list[StateNode]) -> dict[int, np.ndarray]:
        raise NotImplementedError

    def whitened(self, states: list[StateNode]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        r = self.residual(states)
        J = self.jacobians(states)
        return self.sqrt_info @ r, {i: self.sqrt_info @ Ji for i, Ji in J.items()}

    def cost(self, states: list[StateNode]) -> float:
        wr = self.sqrt_info @ self.residual(states)
        return float(wr @ wr)


class PriorPoseFactor(Factor):
    def __init__(self, i: int, R0: np.ndarray, p0: np.ndarray, cov: np.ndarray):
        self.indices = (i,)
        self.R0, self.p0 = R0, np.asarray(p0, float)
        self.sqrt_info = sqrt_info_from_cov(cov)

    def residual(self, states):
        s = states[self.indices[0]]
        return np.concatenate([so3_log(self.R0.T @ s.R_WB), s.p_WB - self.p0])

    def jacobians(self, states):
        s = states[self.indices[0]]
        J = np.zeros((6, STATE_DIM))
        J[0:3, THETA:THETA + 3] = so3_right_jacobian_inv(
            so3_log(self.R0.T @ s.R_WB))
        J[3:6, P:P + 3] = np.eye(3)
        return {self.indices[0]: J}


class PriorVectorFactor(Factor):
    """Prior on a contiguous vector slice of the state tangent (v, biases, t_ext)."""

    def __init__(self, i: int, offset: int, value: np.ndarray, cov: np.ndarray):
        self.indices = (i,)
        self.offset = offset
        self.value = np.asarray(value, float)
        self.sqrt_info = sqrt_info_from_cov(cov)

    def _extract(self, s: StateNode) -> np.ndarray:
        return {
            V: s.v_W,
            BA: s.bias.accel_bias,
            BG: s.bias.gyro_bias,
            T_E: s.p_BL,
        }[self.offset]

    def residual(self, states):
        return self._extract(states[self.indices[0]]) - self.value

    def jacobians(self, states):
        n = len(self.value)
        J = np.zeros((n, STATE_DIM))
        J[:, self.offset:self.offset + n] = np.eye(n)
        return {self.indices[0]: J}


class PriorExtrinsicRotationFactor(Factor):
    def __init__(self, i: int, R0: np.ndarray, cov: np.ndarray):
        self.indices = (i,)
        self.R0 = R0
        self.sqrt_info = sqrt_info_from_cov(cov)

    def residual(self, states):
        return so3_log(self.R0.T @ states[self.indices[0]].R_BL)

    def jacobians(self, states):
        J = np.zeros((3, STATE_DIM))
        J[:, THETA_E:THETA_E + 3] = so3_right_jacobian_inv(self.residual(states))
        return {self.indices[0]: J}


class ImuFactor(Factor):
    def __init__(self, i: int, j: int, delta: PreintegratedDelta,
                 gravity: np.ndarray = GRAVITY_W):
        self.indices = (i, j)
        self.delta = delta
        self.gravity = np.asarray(gravity, float)
        self.sqrt_info = sqrt_info_from_cov(delta.covariance)

    def residual(self, states):
        si, sj = states[self.indices[0]], states[self.indices[1]]
        return imu_residual(si.R_WB, si.p_WB, si.v_W, si.bias,
                            sj.R_WB, sj.p_WB, sj.v_W, self.delta, self.gravity)

    def jacobians(self, states):
        si, sj = states[self.indices[0]], states[self.indices[1]]
        blocks = imu_residual_jacobians(si.R_WB, si.p_WB, si.v_W, si.bias,
                                        sj.R_WB, sj.p_WB, sj.v_W,
                                        self.delta, self.gravity)
        Ji = np.zeros((9, STATE_DIM))
        Jj = np.zeros((9, STATE_DIM))
        Ji[:, THETA:THETA + 3] = blocks["theta_i"]
        Ji[:, P:P + 3] = blocks["p_i"]
        Ji[:, V:V + 3] = blocks["v_i"]
        Ji[:, BA:BA + 3] = blocks["ba_i"]
        Ji[:, BG:BG + 3] = blocks["bg_i"]
        Jj[:, THETA:THETA + 3] = blocks["theta_j"]
        Jj[:, P:P + 3] = blocks["p_j"]
        Jj[:, V:V + 3] = blocks["v_j"]
        return {self.indices[0]: Ji, self.indices[1]: Jj}


class LidarRelativeFactor(Factor):
    """Relative lidar pose between keyframes i and j, coupling the body
    poses with the per-state extrinsics: the mechanism that makes the
    lidar-to-body transform observable."""

    def __init__(self, i: int, j: int, meas: RelativePoseMeasurement):
        self.indices = (i, j)
        self.R_meas = meas.transform.rotation
        self.t_meas = meas.transform.translation
        self.sqrt_info = sqrt_info_from_cov(meas.covariance)

    @staticmethod
    def _lidar_pose(s: StateNode) -> tuple[np.ndarray, np.ndarray]:
        return s.R_WB @ s.R_BL, s.p_WB + s.R_WB @ s.p_BL

    def residual(self, states):
        si, sj = states[self.indices[0]], states[self.indices[1]]
        R_WLi, t_WLi = self._lidar_pose(si)
        R_WLj, t_WLj = self._lidar_pose(sj)
        R_pred = R_WLi.T @ R_WLj
        t_pred = R_WLi.T @ (t_WLj - t_WLi)
        return np.concatenate([so3_log(self.R_meas.T @ R_pred),
                               t_pred - self.t_meas])

    def jacobians(self, states):
        si, sj = states[self.indices[0]], states[self.indices[1]]
        R_WLi, t_WLi = self._lidar_pose(si)
        R_WLj, t_WLj = self._lidar_pose(sj)
        u = t_WLj - t_WLi
        r_R = so3_log(self.R_meas.T @ (R_WLi.T @ R_WLj))
        Jr_inv = so3_right_jacobian_inv(r_R)
        C = R_WLi.T @ R_WLj

        Ji = np.zeros((6, STATE_DIM))
        Jj = np.zeros((6, STATE_DIM))
        # rotation rows
        Ji[0:3, THETA:THETA + 3] = -Jr_inv @ C.T @ si.R_BL.T
        Ji[0:3, THETA_E:THETA_E + 3] = -Jr_inv @ C.T
        Jj[0:3, THETA:THETA + 3] = Jr_inv @ sj.R_BL.T
        Jj[0:3, THETA_E:THETA_E + 3] = Jr_inv
        # translation rows
        s_u = skew(R_WLi.T @ u)
        Ji[3:6, THETA:THETA + 3] = s_u @ si.R_BL.T + si.R_BL.T @ skew(si.p_BL)
        Ji[3:6, THETA_E:THETA_E + 3] = s_u
        Ji[3:6, P:P + 3] = -R_WLi.T
        Ji[3:6, T_E:T_E + 3] = -si.R_BL.T
        Jj[3:6, THETA:THETA + 3] = -R_WLi.T @ sj.R_WB @ skew(sj.p_BL)
        Jj[3:6, P:P + 3] = R_WLi.T
        Jj[3:6, T_E:T_E + 3] = R_WLi.T @ sj.R_WB
        return {self.indices[0]: Ji, self.indices[1]: Jj}


class BiasWalkFactor(Factor):
    """Random walk keeping IMU biases slowly varying between keyframes."""

    def __init__(self, i: int, j: int, cov: np.ndarray):
        self.indices = (i, j)
        self.sqrt_info = sqrt_info_from_cov(cov)

    def residual(self, states):
        si, sj = states[self.indices[0]], states[self.indices[1]]
        return sj.bias.as_vector() - si.bias.as_vector()

    def jacobians(self, states):
        Ji = np.zeros((6, STATE_DIM))
        Jj = np.zeros((6, STATE_DIM))
        Ji[0:3, BA:BA + 3] = -np.eye(3)
        Ji[3:6, BG:BG + 3] = -np.eye(3)
        Jj[0:3, BA:BA + 3] = np.eye(3)
        Jj[3:6, BG:BG + 3] = np.eye(3)
        return {self.indices[0]: Ji, self.indices[1]: Jj}


class ExtrinsicsWalkFactor(Factor):
    """Tight random walk making the per-state extrinsics act as a constant."""

    def __init__(self, i: int, j: int, cov: np.ndarray):
        self.indices = (i, j)
        self.sqrt_info = sqrt_info_from_cov(cov)

    def residual(self, states):
        si, sj = states[self.indices[0]], states[self.indices[1]]
        return np.concatenate([so3_log(si.R_BL.T @ sj.R_BL),
                               sj.p_BL - si.p_BL])

    def jacobians(self, states):
        si, sj = states[self.indices[0]], states[self.indices[1]]
        r_R = so3_log(si.R_BL.T @ sj.R_BL)
        Jr_inv = so3_right_jacobian_inv(r_R)
        C = si.R_BL.T @ sj.R_BL
        Ji = np.zeros((6, STATE_DIM))
        Jj = np.zeros((6, STATE_DIM))
        Ji[0:3, THETA_E:THETA_E + 3] = -Jr_inv @ C.T
        Jj[0:3, THETA_E:THETA_E + 3] = Jr_inv
        Ji[3:6, T_E:T_E + 3] = -np.eye(3)
        Jj[3:6, T_E:T_E + 3] = np.eye(3)
        return {self.indices[0]: Ji, self.indices[1]: Jj}


class LinearizedPriorFactor(Factor):
    """Gaussian prior produced by marginalization: r = A (x [-] x_lin) - b
    stacked over the involved states."""

    def __init__(self, indices: tuple[int, ...], lin_states: list[StateNode],
                 A: np.ndarray, b: np.ndarray):
        self.indices = tuple(indices)
        self.lin_states = [s.copy() for s in lin_states]
        self.A = A
        self.b = b
        self.sqrt_info = np.eye(A.shape[0])   # A is already whitened

    def residual(self, states):
        d = np.concatenate([
            lin.local_coordinates(states[i])
            for i, lin in zip(self.indices, self.lin_states)])
        return self.A @ d - self.b

    def jacobians(self, states):
        # first-order: d(local_coordinates)/d(retract) = I
        out = {}
        for k, i in enumerate(self.indices):
            out[i] = self.A[:, k * STATE_DIM:(k + 1) * STATE_DIM]
        return out
