"""Residuals and analytic Jacobians for the sliding-window estimator.

Each window state has a 21-dimensional tangent space laid out as
[theta(3), p(3), v(3), ba(3), bg(3), theta_ext(3), t_ext(3)].
Rotations retract on the right (R <- R Exp(theta)); everything else is
additive. Each factor computes its residual, and its Jacobians when asked,
in one `evaluate`; the base class whitens them with the stored covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import (Pose, skew, so3_exp, so3_log, so3_right_jacobian,
                       so3_right_jacobian_inv)
from .preintegration import ImuBias, PreintegratedDelta, bias_corrected
from .scan_matching import RelativePoseMeasurement

STATE_DIM = 21
THETA, P, V, BA, BG, THETA_E, T_E = 0, 3, 6, 9, 12, 15, 18
BLOCKS = (THETA, P, V, BA, BG, THETA_E, T_E)
_I3 = np.eye(3)


def _diff(k: int, a: np.ndarray, b: np.ndarray, jacobians: bool = False
          ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Tangent difference from a to b of block k: Log(a^T b) on the
    rotations THETA and THETA_E, b - a on the vectors. Returns it with its
    Jacobians with respect to a and b, which are None unless asked for."""
    if k not in (THETA, THETA_E):
        return (b - a, -_I3, _I3) if jacobians else (b - a, None, None)
    C = a.T @ b
    r = so3_log(C)
    if not jacobians:
        return r, None, None
    Jr_inv = so3_right_jacobian_inv(r)
    return r, -Jr_inv @ C.T, Jr_inv


def _stacked_diff(offsets: tuple[int, ...], a: list[np.ndarray],
                  b: list[np.ndarray], jacobians: bool):
    """_diff over the blocks at `offsets` (a[n] and b[n] are the blocks at
    offsets[n]), stacked; the Jacobians with respect to a and b are
    3 len(offsets) x STATE_DIM, or None unless asked for."""
    rs = []
    Ja = np.zeros((3 * len(offsets), STATE_DIM)) if jacobians else None
    Jb = np.zeros((3 * len(offsets), STATE_DIM)) if jacobians else None
    for n, (k, ak, bk) in enumerate(zip(offsets, a, b)):
        r, dra, drb = _diff(k, ak, bk, jacobians)
        rs.append(r)
        if jacobians:
            Ja[3 * n:3 * n + 3, k:k + 3] = dra
            Jb[3 * n:3 * n + 3, k:k + 3] = drb
    return np.concatenate(rs), Ja, Jb


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

    def block(self, k: int) -> np.ndarray:
        """The rotation or vector at tangent offset k."""
        return (self.R_WB, self.p_WB, self.v_W, self.bias.accel_bias,
                self.bias.gyro_bias, self.R_BL, self.p_BL)[k // 3]

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
        return np.concatenate([_diff(k, self.block(k), other.block(k))[0]
                               for k in BLOCKS])

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
    """A residual on the states `indices`, whitened by `sqrt_info`.
    Subclasses implement `evaluate` only: `whitened` and `cost` are the
    base class's for every factor."""

    indices: tuple[int, ...]
    sqrt_info: np.ndarray

    def evaluate(self, states: list[StateNode], jacobians: bool
                 ) -> tuple[np.ndarray, dict[int, np.ndarray] | None]:
        """Raw residual and, if `jacobians`, its Jacobian with respect to
        the tangent of each state in `indices` (else None)."""
        raise NotImplementedError

    def residual(self, states: list[StateNode]) -> np.ndarray:
        return self.evaluate(states, False)[0]

    def whitened(self, states: list[StateNode]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        r, J = self.evaluate(states, True)
        return self.sqrt_info @ r, {i: self.sqrt_info @ Ji for i, Ji in J.items()}

    def cost(self, states: list[StateNode]) -> float:
        wr = self.sqrt_info @ self.residual(states)
        return float(wr @ wr)


class PriorFactor(Factor):
    """Prior on blocks of state i, given as {tangent offset: value}: a
    rotation matrix at THETA or THETA_E, a 3-vector elsewhere."""

    def __init__(self, i: int, values: dict[int, np.ndarray], cov: np.ndarray):
        self.indices = (i,)
        self.values = {k: np.asarray(v, float) for k, v in values.items()}
        self.sqrt_info = sqrt_info_from_cov(cov)

    def evaluate(self, states, jacobians):
        s = states[self.indices[0]]
        r, _, J = _stacked_diff(tuple(self.values), list(self.values.values()),
                                [s.block(k) for k in self.values], jacobians)
        return r, ({self.indices[0]: J} if jacobians else None)


class WalkFactor(Factor):
    """Random walk of the blocks at `offsets` between states i and j: slowly
    varying IMU biases, or extrinsics that act as a near-constant."""

    def __init__(self, i: int, j: int, offsets: tuple[int, ...], cov: np.ndarray):
        self.indices = (i, j)
        self.offsets = tuple(offsets)
        self.sqrt_info = sqrt_info_from_cov(cov)

    def evaluate(self, states, jacobians):
        i, j = self.indices
        r, Ji, Jj = _stacked_diff(self.offsets,
                                  [states[i].block(k) for k in self.offsets],
                                  [states[j].block(k) for k in self.offsets],
                                  jacobians)
        return r, ({i: Ji, j: Jj} if jacobians else None)


class ImuFactor(Factor):
    """Preintegrated IMU motion between states i and j: the 9-vector
    [rotation, velocity, position] residual with the first-order bias
    correction folded in, differentiated under right rotation and additive
    vector perturbations."""

    def __init__(self, i: int, j: int, delta: PreintegratedDelta,
                 gravity: np.ndarray):
        self.indices = (i, j)
        self.delta = delta
        self.gravity = np.asarray(gravity, float)
        self.sqrt_info = sqrt_info_from_cov(delta.covariance)

    def evaluate(self, states, jacobians):
        i, j = self.indices
        si, sj = states[i], states[j]
        d, g = self.delta, self.gravity
        dt = d.dt_total
        R_i = si.R_WB
        dR, dv, dp = bias_corrected(d, si.bias)
        r_R = so3_log(dR.T @ R_i.T @ sj.R_WB)
        u_v = R_i.T @ (sj.v_W - si.v_W - g * dt)
        u_p = R_i.T @ (sj.p_WB - si.p_WB - si.v_W * dt - 0.5 * g * dt**2)
        r = np.concatenate([r_R, u_v - dv, u_p - dp])
        if not jacobians:
            return r, None
        Jr_inv = so3_right_jacobian_inv(r_R)
        dbg = si.bias.gyro_bias - d.bias_lin.gyro_bias
        Ji = np.zeros((9, STATE_DIM))
        Jj = np.zeros((9, STATE_DIM))
        Ji[0:3, THETA:THETA + 3] = -Jr_inv @ sj.R_WB.T @ R_i
        Ji[0:3, BG:BG + 3] = (-Jr_inv @ so3_exp(r_R).T
                              @ so3_right_jacobian(d.dR_dbg @ dbg) @ d.dR_dbg)
        Ji[3:6, THETA:THETA + 3] = skew(u_v)
        Ji[3:6, V:V + 3] = -R_i.T
        Ji[3:6, BA:BA + 3] = -d.dv_dba
        Ji[3:6, BG:BG + 3] = -d.dv_dbg
        Ji[6:9, THETA:THETA + 3] = skew(u_p)
        Ji[6:9, P:P + 3] = -R_i.T
        Ji[6:9, V:V + 3] = -R_i.T * dt
        Ji[6:9, BA:BA + 3] = -d.dp_dba
        Ji[6:9, BG:BG + 3] = -d.dp_dbg
        Jj[0:3, THETA:THETA + 3] = Jr_inv
        Jj[3:6, V:V + 3] = R_i.T
        Jj[6:9, P:P + 3] = R_i.T
        return r, {i: Ji, j: Jj}


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

    def evaluate(self, states, jacobians):
        i, j = self.indices
        si, sj = states[i], states[j]
        R_WLi, t_WLi = self._lidar_pose(si)
        R_WLj, t_WLj = self._lidar_pose(sj)
        C = R_WLi.T @ R_WLj
        t_pred = R_WLi.T @ (t_WLj - t_WLi)
        r_R = so3_log(self.R_meas.T @ C)
        r = np.concatenate([r_R, t_pred - self.t_meas])
        if not jacobians:
            return r, None
        Jr_inv = so3_right_jacobian_inv(r_R)
        Ji = np.zeros((6, STATE_DIM))
        Jj = np.zeros((6, STATE_DIM))
        # rotation rows
        Ji[0:3, THETA:THETA + 3] = -Jr_inv @ C.T @ si.R_BL.T
        Ji[0:3, THETA_E:THETA_E + 3] = -Jr_inv @ C.T
        Jj[0:3, THETA:THETA + 3] = Jr_inv @ sj.R_BL.T
        Jj[0:3, THETA_E:THETA_E + 3] = Jr_inv
        # translation rows
        s_u = skew(t_pred)
        Ji[3:6, THETA:THETA + 3] = s_u @ si.R_BL.T + si.R_BL.T @ skew(si.p_BL)
        Ji[3:6, THETA_E:THETA_E + 3] = s_u
        Ji[3:6, P:P + 3] = -R_WLi.T
        Ji[3:6, T_E:T_E + 3] = -si.R_BL.T
        Jj[3:6, THETA:THETA + 3] = -R_WLi.T @ sj.R_WB @ skew(sj.p_BL)
        Jj[3:6, P:P + 3] = R_WLi.T
        Jj[3:6, T_E:T_E + 3] = R_WLi.T @ sj.R_WB
        return r, {i: Ji, j: Jj}


class LinearizedPriorFactor(Factor):
    """Gaussian prior on state i produced by marginalization:
    r = A (x [-] x_lin) - b."""

    def __init__(self, i: int, lin_state: StateNode, A: np.ndarray,
                 b: np.ndarray):
        self.indices = (i,)
        self.lin_state = lin_state.copy()
        self.A = A
        self.b = b
        self.sqrt_info = np.eye(A.shape[0])   # A is already whitened

    def evaluate(self, states, jacobians):
        i = self.indices[0]
        r = self.A @ self.lin_state.local_coordinates(states[i]) - self.b
        # first-order: d(local_coordinates)/d(retract) = I
        return r, ({i: self.A} if jacobians else None)
