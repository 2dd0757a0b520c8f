"""Fixed-lag sliding-window MAP estimator.

Fuses preintegrated IMU factors with lidar relative-pose factors over a
trailing time window, keeps the lidar-to-body extrinsics in the state
(online calibration), and marginalizes old states into a linearized
Gaussian prior.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg

from .factors import (BA, BG, P, STATE_DIM, T_E, THETA, THETA_E, V, Factor,
                      FactorBatch, ImuFactor, LidarRelativeFactor,
                      LinearizedPriorFactor, PriorFactor, StateNode, StateStack,
                      WalkFactor, _as_slice)
from .geometry import Pose
from .preintegration import (ImuBias, ImuNoiseParams, PreintegratedDelta,
                             correct_for_bias, predict)
from .scan_matching import RelativePoseMeasurement


@dataclass
class WindowConfig:
    lag: float = 3.0                       # seconds
    max_gn_iterations: int = 10
    convergence_epsilon: float = 1e-6

    def __post_init__(self):
        # written so that NaN fails too; bool is not accepted as an int
        if not self.lag > 0:
            raise ValueError("lag must be positive")
        if type(self.max_gn_iterations) is not int or not self.max_gn_iterations >= 1:
            raise ValueError("max_gn_iterations must be an integer >= 1, "
                             f"got {self.max_gn_iterations!r}")
        if not self.convergence_epsilon > 0:
            raise ValueError("convergence_epsilon must be positive, "
                             f"got {self.convergence_epsilon!r}")


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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0:               # NaN fails too
                raise ValueError(f"{f.name} must be positive, got {value!r}")


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


class _Chain:
    """The factors of a chain window, one FactorBatch per kind and offsets.

    A factor sits on one state (i,) or on two adjacent states (i, i + 1).
    Step r adds into each row of D, g and U the r-th of its terms in list
    order, with one add per batch and end. A row takes at most one term per
    step, so every sum adds its terms in list order, as a loop over the
    factors does, whatever order the factors come in."""

    def __init__(self, factors: list[Factor]):
        self.size = len(factors)
        members = {}                         # (kind, offsets) -> (b, positions)
        steps = {}                           # (step, b, end) -> (members, rows)
        added = {}                           # row -> its terms so far
        for pos, f in enumerate(factors):
            i = f.indices[0]
            if f.indices not in ((i,), (i, i + 1)):
                raise ValueError(f"{type(f).__name__} on states {f.indices} is "
                                 "off the band of (i,) and (i, i + 1)")
            b, group = members.setdefault((type(f), f.offsets),
                                          (len(members), []))
            # ends 0 and 1 add into D and g at their state, end 2 into U at
            # row i, which ~i keeps apart from D's row i
            for a, s in enumerate(f.indices + f.indices[:len(f.indices) - 1]):
                row = ~s if a == 2 else s
                r = added.get(row, 0)
                added[row] = r + 1
                take, rows = steps.setdefault((r, b, a), ([], []))
                take.append(len(group))
                rows.append(s)
            group.append(pos)
        self.batches = [(np.array(pos), FactorBatch([factors[p] for p in pos]))
                        for _, pos in members.values()]
        self.diagonal, self.upper = [], []
        for (_, b, a), (take, rows) in sorted(steps.items()):
            (self.upper if a == 2 else self.diagonal).append(
                (b, a, _as_slice(take), _as_slice(rows)))

    def assemble(self, X: StateStack
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Gauss-Newton system at the states X (see FixedLagSmoother._assemble)."""
        n = len(X)
        D = np.zeros((n, STATE_DIM, STATE_DIM))
        U = np.zeros((n - 1, STATE_DIM, STATE_DIM))
        g = np.zeros((n, STATE_DIM))
        costs = np.empty(self.size)
        lin = [batch.linearize(X, True) for _, batch in self.batches]
        for (pos, _), (cost, _, _) in zip(self.batches, lin):
            costs[pos] = cost
        for b, a, take, rows in self.diagonal:
            _, grads, H = lin[b]
            D[rows] += H[a, a][take]
            g[rows] += grads[a][take]
        for b, _, take, rows in self.upper:
            U[rows] += lin[b][2][0, 1][take]
        return D, U, g.ravel(), _sum_in_order(costs)

    def cost(self, X: StateStack) -> float:
        costs = np.empty(self.size)
        for pos, batch in self.batches:
            costs[pos] = batch.linearize(X, False)[0]
        return _sum_in_order(costs)


def _sum_in_order(values: np.ndarray) -> float:
    """Left to right, as `cost += ...` over the factors adds them."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


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
        self._chain_of = (None, None)          # (factor list key, _Chain)

    # ------------------------------------------------------------------ window

    def add_keyframe(self, t: float,
                     delta: PreintegratedDelta | None,
                     lidar: RelativePoseMeasurement | None) -> None:
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
            if lidar is not None and lidar.converged:
                self.factors.append(LidarRelativeFactor(i, j, lidar))

    # ---------------------------------------------------------------- optimize

    def _chain(self, factors: list[Factor]) -> _Chain:
        """The _Chain of factors, built once per factor list."""
        key = [(id(f), f.indices) for f in factors]
        if self._chain_of[0] != key:
            self._chain_of = (key, _Chain(factors))
        return self._chain_of[1]

    def total_cost(self, states: StateStack | None = None) -> float:
        states = StateStack.of(self.states) if states is None else states
        return self._chain(self.factors).cost(states)

    def _assemble(self, factors: list[Factor], states: StateStack
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Gauss-Newton system of the whitened factors at the states, as the
        diagonal blocks D[k], the super-diagonal blocks U[k] (state k with
        k + 1), g and the cost. The window is a chain, so these blocks are
        all of H."""
        return self._chain(factors).assemble(states)

    def optimize(self) -> float:
        """Damped Gauss-Newton on the window; returns final cost. Keeps the
        best-so-far iterate and flags degraded health on non-convergence."""
        if not self.states:
            raise ValueError("empty window")
        n = len(self.states)
        X = StateStack.of(self.states)
        lam = 0.0
        cost = np.inf
        converged = False
        any_accepted = False
        for _ in range(self.window.max_gn_iterations):
            D, U, g, cost = self._assemble(self.factors, X)
            ab = _band(D, U)
            accepted = False
            for _ in range(8):
                try:
                    delta = _gn_step(ab, g, lam)
                except np.linalg.LinAlgError:
                    lam = max(lam * 10.0, 1e-6)
                    continue
                trial = X.retract(delta.reshape(n, STATE_DIM))
                trial_cost = self.total_cost(trial)
                if trial_cost <= cost + 1e-15:
                    X = trial
                    lam = lam * 0.25 if lam > 1e-9 else 0.0
                    accepted = True
                    any_accepted = True
                    if cost - trial_cost < self.window.convergence_epsilon * (1.0 + cost):
                        converged = True
                    cost = trial_cost
                    break
                lam = max(lam * 10.0, 1e-6)
            if not accepted or converged:
                break
        if any_accepted:
            self.states = X.nodes([s.timestamp for s in self.states])
        # a window where no step could be accepted is reported as degraded
        self.healthy = any_accepted or n == 1
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
        D, U, g, _ = self._assemble(
            marg_factors, StateStack.of(self.states[:n_drop + 1]))
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
