"""Residuals and analytic Jacobians for the sliding-window estimator.

Each window state has a 21-dimensional tangent space laid out as
[theta(3), p(3), v(3), ba(3), bg(3), theta_ext(3), t_ext(3)].
Rotations retract on the right (R <- R Exp(theta)); everything else is
additive. Each factor kind computes its residuals, and its Jacobians when
asked, in one `kernel` over a batch of factors of that kind stacked along a
leading axis; `evaluate` runs it on a batch of one. `FactorBatch` whitens a
batch and forms its normal-equation blocks with stacked products.

Every stacked product rounds as the product of one factor's arrays does, so
a batch gives each factor the bits it gets alone. BLAS rounds a product
differently when an operand's memory order differs, so stacked constants
keep the order, C or Fortran, of the arrays they stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from .geometry import (Pose, skew, so3_exp, so3_log, so3_right_jacobian,
                       so3_right_jacobian_inv)
from .preintegration import ImuBias, PreintegratedDelta, bias_corrected
from .scan_matching import RelativePoseMeasurement

STATE_DIM = 21
THETA, P, V, BA, BG, THETA_E, T_E = 0, 3, 6, 9, 12, 15, 18
BLOCKS = (THETA, P, V, BA, BG, THETA_E, T_E)
ROTATIONS = (THETA, THETA_E)
_I3 = np.eye(3)


def _T(A: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return np.swapaxes(A, -1, -2)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """np.stack that keeps the memory order, C or Fortran, that the matrices
    share: np.concatenate keeps it where np.stack makes a C-ordered copy."""
    if arrays[0].ndim == 1:
        return np.array(arrays)
    return np.concatenate([a[None] for a in arrays])


def _as_slice(idx: list[int]) -> slice | np.ndarray:
    """The indices idx as a slice, which takes views, when they are
    consecutive, else as an array."""
    start = idx[0]
    if idx == list(range(start, start + len(idx))):
        return slice(start, start + len(idx))
    return np.array(idx)


def _diff(k: int, a: np.ndarray, b: np.ndarray, jacobians: bool = False
          ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Tangent difference from a to b of block k, over stacks: Log(a^T b) on
    the rotations THETA and THETA_E, b - a on the vectors. Returns it with
    its Jacobians with respect to a and b, which are None unless asked for."""
    if k not in ROTATIONS:
        return (b - a, -_I3, _I3) if jacobians else (b - a, None, None)
    C = _T(a) @ b
    r = so3_log(C)
    if not jacobians:
        return r, None, None
    Jr_inv = so3_right_jacobian_inv(r)
    return r, -Jr_inv @ _T(C), Jr_inv


def _stacked_diff(offsets: tuple[int, ...], a: list[np.ndarray],
                  b: list[np.ndarray], jacobians: bool):
    """_diff over the blocks at `offsets` (a[n] and b[n] are stacks of the
    blocks at offsets[n]), concatenated per element; the Jacobians with
    respect to a and b are (N, 3 len(offsets), STATE_DIM), or None unless
    asked for."""
    n, m = len(b[0]), 3 * len(offsets)
    rs = []
    Ja = np.zeros((n, m, STATE_DIM)) if jacobians else None
    Jb = np.zeros((n, m, STATE_DIM)) if jacobians else None
    for row, (k, ak, bk) in zip(range(0, m, 3), zip(offsets, a, b)):
        r, dra, drb = _diff(k, ak, bk, jacobians)
        rs.append(r)
        if jacobians:
            Ja[:, row:row + 3, k:k + 3] = dra
            Jb[:, row:row + 3, k:k + 3] = drb
    return np.concatenate(rs, axis=-1), Ja, Jb


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
        return StateStack.of([self]).retract(delta[None]).nodes(
            [self.timestamp])[0]

    def local_coordinates(self, other: "StateNode") -> np.ndarray:
        """Tangent vector from self to other (inverse of retract to 1st order)."""
        return StateStack.of([self]).local_coordinates(StateStack.of([other]))[0]

    def extrinsics_BL(self) -> Pose:
        return Pose(self.R_BL, self.p_BL, "B", "L")


class StateStack:
    """States stacked along a leading axis: block(k) holds the (n, 3, 3)
    rotations or (n, 3) vectors at tangent offset k."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)

    @classmethod
    def of(cls, states: list[StateNode]) -> "StateStack":
        return cls(_stack([s.block(k) for s in states]) for k in BLOCKS)

    def __len__(self) -> int:
        return len(self.blocks[0])

    def __getitem__(self, rows) -> "StateStack":
        return StateStack(b[rows] for b in self.blocks)

    def block(self, k: int) -> np.ndarray:
        return self.blocks[k // 3]

    def retract(self, delta: np.ndarray) -> "StateStack":
        """Each state moved by its row of the (n, STATE_DIM) delta."""
        return StateStack(b @ so3_exp(delta[:, k:k + 3]) if k in ROTATIONS
                          else b + delta[:, k:k + 3]
                          for k, b in zip(BLOCKS, self.blocks))

    def local_coordinates(self, other: "StateStack") -> np.ndarray:
        """Tangent vectors (n, STATE_DIM) from each state to other's."""
        return np.concatenate([_diff(k, self.block(k), other.block(k))[0]
                               for k in BLOCKS], axis=-1)

    def nodes(self, timestamps: list[float]) -> list[StateNode]:
        return [StateNode(t, R, p, v, ImuBias(ba, bg), R_e, p_e)
                for t, R, p, v, ba, bg, R_e, p_e in zip(timestamps, *self.blocks)]


def sqrt_info_from_cov(cov: np.ndarray) -> np.ndarray:
    """Upper-triangular S with S^T S = cov^-1 (so ||S r||^2 = r^T cov^-1 r)."""
    cov = 0.5 * (cov + cov.T)
    n = cov.shape[0]
    # guard against exactly singular covariances from degeneracy inflation
    cov = cov + 1e-12 * np.trace(cov) / n * np.eye(n)
    L = np.linalg.cholesky(cov)
    return scipy.linalg.solve_triangular(L, np.eye(n), lower=True)


def _normal_blocks(S: np.ndarray, J: list[np.ndarray]):
    """The whitened Jacobians S J[a] of a batch, and the blocks of H they
    give: {(a, b): (S J[a])^T (S J[b]) for a <= b}."""
    wJ = [S @ Ja for Ja in J]
    H = {(a, b): _T(wJ[a]) @ wJ[b]
         for a in range(len(J)) for b in range(a, len(J))}
    return wJ, H


class Factor:
    """A residual on the states `indices`, whitened by `sqrt_info`.
    Subclasses implement `stack` and `kernel` only: `evaluate`, `whitened`
    and `cost` are the base class's for every factor."""

    indices: tuple[int, ...]
    sqrt_info: np.ndarray
    # the state blocks a prior or walk acts on: a batch holds one kind with
    # one choice of offsets
    offsets: tuple[int, ...] = ()
    # _normal_blocks of the Jacobians when they do not depend on the states
    fixed: tuple | None = None

    @classmethod
    def stack(cls, factors: list["Factor"]) -> SimpleNamespace:
        """The constants of `factors`, all of this kind and with the same
        offsets, stacked along a leading axis."""
        raise NotImplementedError

    @staticmethod
    def kernel(c: SimpleNamespace, xs: list[StateStack], jacobians: bool
               ) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
        """Raw residuals (N, m) of a batch with stacked constants c at the
        states xs, one stack per entry of `indices`, and if `jacobians` their
        Jacobians (N, m, STATE_DIM) with respect to each (else None)."""
        raise NotImplementedError

    def evaluate(self, states: list[StateNode], jacobians: bool
                 ) -> tuple[np.ndarray, dict[int, np.ndarray] | None]:
        """Raw residual and, if `jacobians`, its Jacobian with respect to
        the tangent of each state in `indices` (else None)."""
        xs = [StateStack.of([states[i]]) for i in self.indices]
        r, J = self.kernel(self.stack([self]), xs, jacobians)
        if not jacobians:
            return r[0], None
        return r[0], {i: Ji[0] for i, Ji in zip(self.indices, J)}

    def residual(self, states: list[StateNode]) -> np.ndarray:
        return self.evaluate(states, False)[0]

    def whitened(self, states: list[StateNode]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        r, J = self.evaluate(states, True)
        return self.sqrt_info @ r, {i: self.sqrt_info @ Ji for i, Ji in J.items()}

    def cost(self, states: list[StateNode]) -> float:
        wr = self.sqrt_info @ self.residual(states)
        return float(wr @ wr)

    def _fix(self, jacobians: tuple[np.ndarray, ...]) -> None:
        """Whiten Jacobians (1, m, STATE_DIM) that do not depend on the
        states, and form their blocks, once."""
        self.fixed = _normal_blocks(self.sqrt_info[None], list(jacobians))


class FactorBatch:
    """Factors of one kind, with the same offsets, evaluated together: their
    stacked constants, square-root informations and state indices."""

    def __init__(self, factors: list[Factor]):
        self.kind = type(factors[0])
        self.const = self.kind.stack(factors)
        self.sqrt_info = _stack([f.sqrt_info for f in factors])
        # rows[a] picks the states at indices[a] of every factor
        self.rows = [_as_slice(list(col))
                     for col in zip(*(f.indices for f in factors))]
        fixed = factors[0].fixed
        self.fixed = None if fixed is None else (
            [np.concatenate([f.fixed[0][a] for f in factors])
             for a in range(len(fixed[0]))],
            {key: np.concatenate([f.fixed[1][key] for f in factors])
             for key in fixed[1]})

    def linearize(self, X: StateStack, jacobians: bool):
        """At the states X: the cost r^T r of each whitened residual r and,
        if `jacobians`, each factor's gradient blocks (S J[a])^T r and its
        blocks of H (see _normal_blocks); else None for both."""
        xs = [X[rows] for rows in self.rows]
        r, J = self.kind.kernel(self.const, xs, jacobians and self.fixed is None)
        wr = np.matvec(self.sqrt_info, r)
        cost = np.vecdot(wr, wr)
        if not jacobians:
            return cost, None, None
        wJ, H = self.fixed or _normal_blocks(self.sqrt_info, J)
        return cost, [np.matvec(_T(wJa), wr) for wJa in wJ], H


class PriorFactor(Factor):
    """Prior on blocks of state i, given as {tangent offset: value}: a
    rotation matrix at THETA or THETA_E, a 3-vector elsewhere."""

    def __init__(self, i: int, values: dict[int, np.ndarray], cov: np.ndarray):
        self.indices = (i,)
        self.values = {k: np.asarray(v, float) for k, v in values.items()}
        self.offsets = tuple(self.values)
        self.sqrt_info = sqrt_info_from_cov(cov)
        if not set(self.offsets) & set(ROTATIONS):
            value = [v[None] for v in self.values.values()]
            self._fix(_stacked_diff(self.offsets, value, value, True)[2:])

    @classmethod
    def stack(cls, factors):
        return SimpleNamespace(offsets=factors[0].offsets, values=[
            _stack([f.values[k] for f in factors]) for k in factors[0].offsets])

    @staticmethod
    def kernel(c, xs, jacobians):
        r, _, J = _stacked_diff(c.offsets, c.values,
                                [xs[0].block(k) for k in c.offsets], jacobians)
        return r, ((J,) if jacobians else None)


class WalkFactor(Factor):
    """Random walk of the blocks at `offsets` between states i and j: slowly
    varying IMU biases, or extrinsics that act as a near-constant."""

    def __init__(self, i: int, j: int, offsets: tuple[int, ...], cov: np.ndarray):
        self.indices = (i, j)
        self.offsets = tuple(offsets)
        self.sqrt_info = sqrt_info_from_cov(cov)
        if not set(self.offsets) & set(ROTATIONS):
            zero = [np.zeros((1, 3))] * len(self.offsets)
            self._fix(_stacked_diff(self.offsets, zero, zero, True)[1:])

    @classmethod
    def stack(cls, factors):
        return SimpleNamespace(offsets=factors[0].offsets)

    @staticmethod
    def kernel(c, xs, jacobians):
        xi, xj = xs
        r, Ji, Jj = _stacked_diff(c.offsets, [xi.block(k) for k in c.offsets],
                                  [xj.block(k) for k in c.offsets], jacobians)
        return r, ((Ji, Jj) if jacobians else None)


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

    @classmethod
    def stack(cls, factors):
        # the deltas' arrays under their own names, which bias_corrected reads
        ds = [f.delta for f in factors]
        c = SimpleNamespace(**{name: _stack([getattr(d, name) for d in ds])
                               for name in ("dR", "dv", "dp", "dR_dbg", "dv_dbg",
                                            "dv_dba", "dp_dbg", "dp_dba")})
        c.dt = np.array([d.dt_total for d in ds])
        c.ba_lin = _stack([d.bias_lin.accel_bias for d in ds])
        c.bg_lin = _stack([d.bias_lin.gyro_bias for d in ds])
        c.gravity = _stack([f.gravity for f in factors])
        return c

    @staticmethod
    def kernel(c, xs, jacobians):
        xi, xj = xs
        dt = c.dt[:, None]
        g = c.gravity
        R_i, R_j = xi.block(THETA), xj.block(THETA)
        dbg = xi.block(BG) - c.bg_lin
        dR, dv, dp = bias_corrected(c, xi.block(BA) - c.ba_lin, dbg)
        r_R = so3_log(_T(dR) @ _T(R_i) @ R_j)
        u_v = np.matvec(_T(R_i), xj.block(V) - xi.block(V) - g * dt)
        u_p = np.matvec(_T(R_i), xj.block(P) - xi.block(P) - xi.block(V) * dt
                        - 0.5 * g * np.float_power(dt, 2))
        r = np.concatenate([r_R, u_v - dv, u_p - dp], axis=-1)
        if not jacobians:
            return r, None
        Jr_inv = so3_right_jacobian_inv(r_R)
        Ji = np.zeros((len(r), 9, STATE_DIM))
        Jj = np.zeros((len(r), 9, STATE_DIM))
        Ji[:, 0:3, THETA:THETA + 3] = -Jr_inv @ _T(R_j) @ R_i
        Ji[:, 0:3, BG:BG + 3] = (-Jr_inv @ _T(so3_exp(r_R))
                                 @ so3_right_jacobian(np.matvec(c.dR_dbg, dbg))
                                 @ c.dR_dbg)
        Ji[:, 3:6, THETA:THETA + 3] = skew(u_v)
        Ji[:, 3:6, V:V + 3] = -_T(R_i)
        Ji[:, 3:6, BA:BA + 3] = -c.dv_dba
        Ji[:, 3:6, BG:BG + 3] = -c.dv_dbg
        Ji[:, 6:9, THETA:THETA + 3] = skew(u_p)
        Ji[:, 6:9, P:P + 3] = -_T(R_i)
        Ji[:, 6:9, V:V + 3] = -_T(R_i) * dt[..., None]
        Ji[:, 6:9, BA:BA + 3] = -c.dp_dba
        Ji[:, 6:9, BG:BG + 3] = -c.dp_dbg
        Jj[:, 0:3, THETA:THETA + 3] = Jr_inv
        Jj[:, 3:6, V:V + 3] = _T(R_i)
        Jj[:, 6:9, P:P + 3] = _T(R_i)
        return r, (Ji, Jj)


class LidarRelativeFactor(Factor):
    """Relative lidar pose between keyframes i and j, coupling the body
    poses with the per-state extrinsics: the mechanism that makes the
    lidar-to-body transform observable."""

    def __init__(self, i: int, j: int, meas: RelativePoseMeasurement):
        self.indices = (i, j)
        self.R_meas = meas.transform.rotation
        self.t_meas = meas.transform.translation
        self.sqrt_info = sqrt_info_from_cov(meas.covariance)

    @classmethod
    def stack(cls, factors):
        return SimpleNamespace(R_meas=_stack([f.R_meas for f in factors]),
                               t_meas=_stack([f.t_meas for f in factors]))

    @staticmethod
    def _lidar_pose(x: StateStack) -> tuple[np.ndarray, np.ndarray]:
        R_WB = x.block(THETA)
        return R_WB @ x.block(THETA_E), x.block(P) + np.matvec(R_WB, x.block(T_E))

    @staticmethod
    def kernel(c, xs, jacobians):
        xi, xj = xs
        R_WLi, t_WLi = LidarRelativeFactor._lidar_pose(xi)
        R_WLj, t_WLj = LidarRelativeFactor._lidar_pose(xj)
        C = _T(R_WLi) @ R_WLj
        t_pred = np.matvec(_T(R_WLi), t_WLj - t_WLi)
        r_R = so3_log(_T(c.R_meas) @ C)
        r = np.concatenate([r_R, t_pred - c.t_meas], axis=-1)
        if not jacobians:
            return r, None
        Jr_inv = so3_right_jacobian_inv(r_R)
        R_BLi, R_BLj = xi.block(THETA_E), xj.block(THETA_E)
        Ji = np.zeros((len(r), 6, STATE_DIM))
        Jj = np.zeros((len(r), 6, STATE_DIM))
        # rotation rows
        Ji[:, 0:3, THETA:THETA + 3] = -Jr_inv @ _T(C) @ _T(R_BLi)
        Ji[:, 0:3, THETA_E:THETA_E + 3] = -Jr_inv @ _T(C)
        Jj[:, 0:3, THETA:THETA + 3] = Jr_inv @ _T(R_BLj)
        Jj[:, 0:3, THETA_E:THETA_E + 3] = Jr_inv
        # translation rows
        s_u = skew(t_pred)
        Ji[:, 3:6, THETA:THETA + 3] = (s_u @ _T(R_BLi)
                                       + _T(R_BLi) @ skew(xi.block(T_E)))
        Ji[:, 3:6, THETA_E:THETA_E + 3] = s_u
        Ji[:, 3:6, P:P + 3] = -_T(R_WLi)
        Ji[:, 3:6, T_E:T_E + 3] = -_T(R_BLi)
        Jj[:, 3:6, THETA:THETA + 3] = (-_T(R_WLi) @ xj.block(THETA)
                                       @ skew(xj.block(T_E)))
        Jj[:, 3:6, P:P + 3] = _T(R_WLi)
        Jj[:, 3:6, T_E:T_E + 3] = _T(R_WLi) @ xj.block(THETA)
        return r, (Ji, Jj)


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
        # first-order: d(local_coordinates)/d(retract) = I
        self._fix((A[None],))

    @classmethod
    def stack(cls, factors):
        return SimpleNamespace(
            lin=StateStack.of([f.lin_state for f in factors]),
            A=_stack([f.A for f in factors]), b=_stack([f.b for f in factors]))

    @staticmethod
    def kernel(c, xs, jacobians):
        r = np.matvec(c.A, c.lin.local_coordinates(xs[0])) - c.b
        return r, ((c.A,) if jacobians else None)
