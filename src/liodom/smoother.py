"""Fixed-lag sliding-window MAP estimator.

Fuses preintegrated IMU factors with lidar relative-pose factors over a
trailing time window, keeps the lidar-to-body extrinsics in the state
(online calibration), and marginalizes old states into a linearized
Gaussian prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .factors import (BA, BG, P, STATE_DIM, T_E, THETA, THETA_E, V, Factor,
                      ImuFactor, LidarRelativeFactor, LinearizedPriorFactor,
                      PriorFactor, StateNode, WalkFactor)
from .geometry import Pose
from .preintegration import (ImuBias, ImuNoiseParams, PreintegratedDelta,
                             correct_for_bias, predict)
from .scan_matching import Gap, RelativePoseMeasurement


@dataclass
class WindowConfig:
    lag: float = 3.0                       # seconds
    max_gn_iterations: int = 10
    convergence_epsilon: float = 1e-6

    def __post_init__(self):
        if not self.lag > 0:                # NaN fails too
            raise ValueError("lag must be positive")


@dataclass
class PriorConfig:
    # rotation is kept loose: the initial attitude comes from a gravity
    # bootstrap whose tilt error the window must be free to correct
    pose_rot_std: float = 0.05
    pose_trans_std: float = 1e-3
    velocity_std: float = 0.05
    accel_bias_std: float = 0.1
    gyro_bias_std: float = 0.01
    extr_rot_std: float = 0.1
    extr_trans_std: float = 0.1
    extr_walk_rot_std: float = 1e-4        # per keyframe
    extr_walk_trans_std: float = 1e-4


# upper bandwidth of a block-tridiagonal H with STATE_DIM x STATE_DIM blocks
BAND = 2 * STATE_DIM - 1


def _band(D: np.ndarray, U: np.ndarray) -> np.ndarray:
    """LAPACK upper band storage, ab[BAND + i - j, j] = H[i, j], of the
    symmetric block-tridiagonal H with diagonal blocks D and super-diagonal
    blocks U."""
    ab = np.zeros((BAND + 1, len(D), STATE_DIM))
    r, c = np.triu_indices(STATE_DIM)
    ab[BAND + r - c, :, c] = D[:, r, c].T
    r, c = np.indices((STATE_DIM, STATE_DIM)).reshape(2, -1)
    ab[STATE_DIM - 1 + r - c, 1:, c] = U[:, r, c].T
    return ab.reshape(BAND + 1, -1)


def _dense(D: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The symmetric block-tridiagonal H as a dense matrix."""
    n = len(D)
    H = np.zeros((n, STATE_DIM, n, STATE_DIM))
    k = np.arange(n)
    H[k, :, k] = D
    H[k[:-1], :, k[1:]] = U
    H[k[1:], :, k[:-1]] = U.transpose(0, 2, 1)
    return H.reshape(n * STATE_DIM, n * STATE_DIM)


def _gn_step(ab: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Solve (H + lam * diag(max(diag(H), 1e-6))) delta = -g by banded
    Cholesky, H given in upper band storage; raises LinAlgError when the
    damped H is not positive definite."""
    damped = ab.copy()
    damped[-1] += lam * np.maximum(ab[-1], 1e-6)
    c = scipy.linalg.cholesky_banded(damped, overwrite_ab=True,
                                     check_finite=False)
    return scipy.linalg.cho_solve_banded((c, False), -g, check_finite=False)


class FixedLagSmoother:

    def __init__(self, window: WindowConfig, noise: ImuNoiseParams,
                 init_extrinsics: Pose, priors: PriorConfig | None = None,
                 init_R_WB: np.ndarray | None = None,
                 init_p_WB: np.ndarray | None = None):
        self.window = window
        self.noise = noise
        self.priors = priors or PriorConfig()
        self.init_extrinsics = init_extrinsics
        self.init_R_WB = np.eye(3) if init_R_WB is None else init_R_WB
        self.init_p_WB = np.zeros(3) if init_p_WB is None else init_p_WB
        self.states: list[StateNode] = []
        self.factors: list[Factor] = []
        self.healthy = True

    # ------------------------------------------------------------------ window

    def add_keyframe(self, t: float,
                     delta: PreintegratedDelta | None,
                     lidar: RelativePoseMeasurement | Gap | None) -> None:
        if self.states and t <= self.states[-1].timestamp:
            raise ValueError("keyframe times must be strictly increasing")
        pr = self.priors
        if not self.states:
            node = StateNode(t, self.init_R_WB.copy(), self.init_p_WB.copy(),
                             np.zeros(3), ImuBias(),
                             self.init_extrinsics.rotation.copy(),
                             self.init_extrinsics.translation.copy())
            self.states.append(node)
            # grouped as recorded runs had them: a regrouping changes the
            # covariance floor in sqrt_info_from_cov and the summation order
            self.factors += [
                PriorFactor(0, {THETA: node.R_WB, P: node.p_WB},
                            np.diag([pr.pose_rot_std**2] * 3
                                    + [pr.pose_trans_std**2] * 3)),
                PriorFactor(0, {V: np.zeros(3)}, np.eye(3) * pr.velocity_std**2),
                PriorFactor(0, {BA: np.zeros(3)},
                            np.eye(3) * pr.accel_bias_std**2),
                PriorFactor(0, {BG: np.zeros(3)},
                            np.eye(3) * pr.gyro_bias_std**2),
                PriorFactor(0, {T_E: node.p_BL}, np.eye(3) * pr.extr_trans_std**2),
                PriorFactor(0, {THETA_E: node.R_BL},
                            np.eye(3) * pr.extr_rot_std**2)]
        else:
            if delta is None:
                raise ValueError("non-initial keyframes need an IMU delta")
            prev = self.states[-1]
            i = len(self.states) - 1
            if np.linalg.norm(prev.bias.as_vector()
                              - delta.bias_lin.as_vector()) > 1e-3:
                delta = correct_for_bias(delta, prev.bias)
            gravity_W = self.noise.gravity_W
            R_j, p_j, v_j = predict(prev.R_WB, prev.p_WB, prev.v_W, delta,
                                    gravity_W)
            node = StateNode(t, R_j, p_j, v_j, prev.bias,
                             prev.R_BL.copy(), prev.p_BL.copy())
            self.states.append(node)
            j = i + 1
            self.factors.append(ImuFactor(i, j, delta, gravity_W))
            dt = delta.dt_total
            walk_cov = np.diag(
                [self.noise.accel_bias_walk**2 * dt] * 3
                + [self.noise.gyro_bias_walk**2 * dt] * 3)
            self.factors.append(WalkFactor(i, j, (BA, BG), walk_cov))
            self.factors.append(WalkFactor(
                i, j, (THETA_E, T_E),
                np.diag([pr.extr_walk_rot_std**2] * 3
                        + [pr.extr_walk_trans_std**2] * 3)))
            if isinstance(lidar, RelativePoseMeasurement) and lidar.converged:
                self.factors.append(LidarRelativeFactor(i, j, lidar))

    # ---------------------------------------------------------------- optimize

    def total_cost(self, states: list[StateNode] | None = None) -> float:
        states = self.states if states is None else states
        return sum(f.cost(states) for f in self.factors)

    def _assemble(self, factors: list[Factor], first: int, n_blocks: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Gauss-Newton system of the whitened factors at the current states
        first .. first + n_blocks - 1, as the diagonal blocks D[k], the
        super-diagonal blocks U[k] (state k with k + 1), g and the cost.
        The window is a chain, so these blocks are all of H."""
        D = np.zeros((n_blocks, STATE_DIM, STATE_DIM))
        U = np.zeros((n_blocks - 1, STATE_DIM, STATE_DIM))
        g = np.zeros((n_blocks, STATE_DIM))
        cost = 0.0
        for f in factors:
            if max(f.indices) - min(f.indices) > 1:
                raise ValueError(f"{type(f).__name__} links non-adjacent "
                                 f"states {f.indices}")
            wr, wJ = f.whitened(self.states)
            cost += float(wr @ wr)
            items = [(i - first, J) for i, J in wJ.items()]
            for a, (ka, Ja) in enumerate(items):
                g[ka] += Ja.T @ wr
                for kb, Jb in items[a:]:
                    block = Ja.T @ Jb
                    if ka == kb:
                        D[ka] += block
                    elif ka < kb:
                        U[ka] += block
                    else:
                        U[kb] += block.T
        return D, U, g.ravel(), cost

    def optimize(self) -> float:
        """Damped Gauss-Newton on the window; returns final cost. Keeps the
        best-so-far iterate and flags degraded health on non-convergence."""
        if not self.states:
            raise ValueError("empty window")
        n = len(self.states)
        lam = 0.0
        cost = np.inf
        converged = False
        any_accepted = False
        for _ in range(self.window.max_gn_iterations):
            D, U, g, cost = self._assemble(self.factors, 0, n)
            ab = _band(D, U)
            accepted = False
            for _ in range(8):
                try:
                    delta = _gn_step(ab, g, lam)
                except np.linalg.LinAlgError:
                    lam = max(lam * 10.0, 1e-6)
                    continue
                trial = [s.retract(delta[k * STATE_DIM:(k + 1) * STATE_DIM])
                         for k, s in enumerate(self.states)]
                trial_cost = self.total_cost(trial)
                if trial_cost <= cost + 1e-15:
                    self.states = trial
                    lam = lam * 0.25 if lam > 1e-9 else 0.0
                    accepted = True
                    any_accepted = True
                    if cost - trial_cost < self.window.convergence_epsilon * (1.0 + cost):
                        converged = True
                    cost = trial_cost
                    break
                lam = max(lam * 10.0, 1e-6)
            if not accepted or converged:
                converged = converged or any_accepted
                break
        else:
            converged = any_accepted
        # a window where no step could be accepted is reported as degraded
        self.healthy = converged or n == 1
        return cost

    # ------------------------------------------------------------- marginalize

    def marginalize(self) -> None:
        """Drop states older than the lag, replacing them with a first-order
        Gaussian prior (Schur complement) on the states they touched."""
        if not self.states:
            return
        cutoff = self.states[-1].timestamp - self.window.lag
        n_drop = sum(1 for s in self.states if s.timestamp < cutoff)
        n_drop = min(n_drop, len(self.states) - 1)
        if n_drop <= 0:
            return
        # chain factors: the dropped states reach only state n_drop
        marg_factors = [f for f in self.factors if min(f.indices) < n_drop]
        keep_factors = [f for f in self.factors if min(f.indices) >= n_drop]
        D, U, g, _ = self._assemble(marg_factors, 0, n_drop + 1)
        H = _dense(D, U)
        nd = n_drop * STATE_DIM
        H_dd = H[:nd, :nd] + 1e-10 * np.eye(nd)
        H_dk = H[:nd, nd:]
        sol = np.linalg.solve(H_dd, np.hstack([H_dk, g[:nd, None]]))
        H_marg = H[nd:, nd:] - H_dk.T @ sol[:, :-1]
        g_marg = g[nd:] - H_dk.T @ sol[:, -1]
        H_marg = 0.5 * (H_marg + H_marg.T)
        lam, Vec = np.linalg.eigh(H_marg)
        keep_eig = lam > max(lam[-1], 0.0) * 1e-12
        lam, Vec = lam[keep_eig], Vec[:, keep_eig]
        A = (np.sqrt(lam)[:, None] * Vec.T)
        b = -(Vec / np.sqrt(lam)[None, :]).T @ g_marg

        prior = LinearizedPriorFactor(n_drop, self.states[n_drop], A, b)
        new_factors = keep_factors + [prior]
        # reindex after removing the prefix
        self.states = self.states[n_drop:]
        for f in new_factors:
            f.indices = tuple(i - n_drop for i in f.indices)
        self.factors = new_factors

    # ---------------------------------------------------------------- queries

    @property
    def latest(self) -> StateNode:
        return self.states[-1]

    def extrinsics_estimate(self) -> Pose:
        return self.states[-1].extrinsics_BL()
