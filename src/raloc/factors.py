"""Residuals and analytic Jacobians for every factor type in the two graphs.

A factor is anything with ``keys``, the variables it reads in order, and
``evaluate(*values) -> Residual``. Residuals are reported un-whitened,
together with a square-root information weight ``W`` (``W.T @ W`` equals the
inverse measurement covariance) so the solver forms whitened rows ``W @ r``
and ``W @ J``. Pose Jacobians are taken with respect to the right
perturbation ``T * exp(delta)``; vector variables perturb additively.

Range, odometry and bias-walk factors also have a stacked form
(``Stackable``): their data are (N, ...) arrays, one block of rows per
measurement, and a factor built from one measurement has N = 1.
``stack`` concatenates several factors of one class into one instance whose
``evaluate`` takes stacked values (a pose as a pair of (N, 3, 3) rotations
and (N, 3) positions, a bias as an (N,) array) and returns every row in one
``Residual``. The single-factor ``evaluate`` is that kernel on N = 1.
``range_residual``, ``odometry_residual`` and ``prior_residual`` state the
per-measurement models plainly and serve as the kernels' references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lie import (
    Pose,
    adjoint,
    adjoint_rows,
    batch_log_jr_inv,
    log,
    right_jacobian_inv,
    skew,
)
from .preintegration import PreintegratedOdometry

# Predicted anchor-antenna distance below which the range gradient is
# undefined and the factor refuses to evaluate.
MIN_RANGE = 1e-6


@dataclass(frozen=True)
class Anchor:
    """Fixed UWB anchor: world position plus a prior on its range bias."""

    id: int
    position: np.ndarray
    bias_prior_mean: float = 0.0
    bias_prior_sigma: float = 0.2

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValueError("anchor position must be a finite 3-vector")
        object.__setattr__(self, "position", pos)
        if self.bias_prior_sigma <= 0.0:
            raise ValueError("anchor bias prior sigma must be positive")


@dataclass(frozen=True)
class RangeMeasurement:
    """One UWB range: distance to an anchor at a stamp, with noise sigma."""

    stamp: float
    anchor_id: int
    range: float
    sigma: float

    def __post_init__(self):
        if self.range <= 0.0:
            raise ValueError("range must be positive")
        if self.sigma <= 0.0:
            raise ValueError("range sigma must be positive")


@dataclass(frozen=True)
class LeverArm:
    """Antenna position in the body frame."""

    offset: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offset, dtype=float)
        if off.shape != (3,) or not np.all(np.isfinite(off)):
            raise ValueError("lever arm must be a finite 3-vector")
        object.__setattr__(self, "offset", off)


@dataclass(frozen=True)
class Residual:
    """Un-whitened residual rows, per-variable Jacobians, and sqrt-information.

    ``value`` holds M rows and each Jacobian is (M, variable dim). ``weight``
    is an (M, M) matrix, an (N, m, m) stack of blocks for N measurements of m
    rows each (M = N m), or None for rows that are already whitened.
    """

    value: np.ndarray
    jacobians: tuple[np.ndarray, ...]
    weight: np.ndarray | None

    def whitened(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        W = self.weight
        if W is None:
            return self.value, self.jacobians
        if W.ndim == 2:
            return W @ self.value, tuple(W @ j for j in self.jacobians)
        n, m = W.shape[:2]
        return (W @ self.value.reshape(n, m, 1)).reshape(-1), tuple(
            (W @ j.reshape(n, m, -1)).reshape(n * m, -1) for j in self.jacobians
        )

    def cost(self) -> float:
        wr = self.whitened()[0]
        return 0.5 * float(wr @ wr)


def whitener(cov: np.ndarray) -> np.ndarray:
    """Square-root information matrix: inverse of the covariance Cholesky.

    Computed once per factor and cached there; raises on non-PD input.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    chol = np.linalg.cholesky(cov)
    return scipy.linalg.solve_triangular(chol, np.eye(cov.shape[0]), lower=True)


def range_residual(
    T: Pose,
    b: float,
    z: RangeMeasurement,
    anchor: Anchor,
    arm: LeverArm,
    weight: np.ndarray | None = None,
) -> Residual:
    """Predicted-minus-measured range, weighted by 1/sigma.

    The predicted range is the distance from the anchor to the antenna
    (body position plus rotated lever arm) plus the anchor's bias. The
    rotation enters only through the lever arm, so a zero arm makes the
    residual rotation-invariant.
    """
    diff = anchor.position - T.rotation @ arm.offset - T.position
    dist = float(np.linalg.norm(diff))
    if dist < MIN_RANGE:
        raise ValueError(
            f"antenna coincides with anchor {anchor.id}: range gradient undefined"
        )
    u = diff / dist
    value = np.array([dist + b - z.range])
    j_pose = np.empty((1, 6))
    j_pose[0, :3] = -(u @ T.rotation)
    j_pose[0, 3:] = u @ T.rotation @ skew(arm.offset)
    j_bias = np.array([[1.0]])
    if weight is None:
        weight = np.array([[1.0 / z.sigma]])
    return Residual(value, (j_pose, j_bias), weight)


def odometry_residual(
    Ti: Pose,
    Tj: Pose,
    m: PreintegratedOdometry,
    weight: np.ndarray | None = None,
) -> Residual:
    """Relative-pose residual log(delta^-1 Ti^-1 Tj) whitened by m.cov."""
    rel = Ti.inverse() @ Tj
    value = log(m.delta.inverse() @ rel)
    jr_inv = right_jacobian_inv(value)
    j_j = jr_inv
    j_i = -jr_inv @ adjoint(rel.inverse())
    if weight is None:
        weight = odometry_weight(m.cov)
    return Residual(value, (j_i, j_j), weight)


def odometry_weight(cov: np.ndarray) -> np.ndarray:
    try:
        return whitener(cov)
    except np.linalg.LinAlgError:
        pass
    try:
        return whitener(cov + 1e-12 * np.eye(6))
    except np.linalg.LinAlgError as err:
        raise ValueError("odometry covariance not invertible after regularization") from err


def prior_residual(x, mean, cov, weight: np.ndarray | None = None) -> Residual:
    """Tangent-space difference from a prior mean, whitened by the prior cov.

    Accepts a Pose (6-dof twist difference), a scalar bias, or a plain
    vector state; the Jacobian is identity-like in each tangent space.
    """
    if weight is None:
        weight = whitener(cov)
    if isinstance(x, Pose):
        value = log(mean.inverse() @ x)
        return Residual(value, (right_jacobian_inv(value),), weight)
    if np.isscalar(x) or np.ndim(x) == 0:
        return Residual(np.array([float(x) - float(mean)]), (np.array([[1.0]]),), weight)
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    return Residual(x - mean, (np.eye(x.size),), weight)


def wnoa_transition(dt: float) -> np.ndarray:
    """Constant-velocity transition on [position, velocity] stacked states."""
    phi = np.eye(6)
    phi[:3, 3:] = dt * np.eye(3)
    return phi


def wnoa_process_cov(dt: float, Qw: np.ndarray) -> np.ndarray:
    """Integrated white-acceleration covariance over one interval."""
    Qw = np.asarray(Qw, dtype=float)
    return np.block(
        [
            [dt**3 / 3.0 * Qw, dt**2 / 2.0 * Qw],
            [dt**2 / 2.0 * Qw, dt * Qw],
        ]
    )


def wnoa_residual(
    x_prev: np.ndarray,
    x_next: np.ndarray,
    dt: float,
    Qw: np.ndarray,
    weight: np.ndarray | None = None,
) -> Residual:
    """Constant-velocity motion prior between two [p, v] states."""
    if dt <= 0.0:
        raise ValueError(f"motion prior needs dt > 0, got {dt}")
    phi = wnoa_transition(dt)
    value = np.asarray(x_next, dtype=float) - phi @ np.asarray(x_prev, dtype=float)
    if weight is None:
        weight = whitener(wnoa_process_cov(dt, Qw))
    return Residual(value, (-phi, np.eye(6)), weight)


def offset_measurement_residual(
    x: np.ndarray,
    y: np.ndarray,
    cov: np.ndarray,
    weight: np.ndarray | None = None,
) -> Residual:
    """Position component of a [p, v] state against a measured position."""
    x = np.asarray(x, dtype=float)
    value = x[:3] - np.asarray(y, dtype=float)
    jac = np.zeros((3, 6))
    jac[:, :3] = np.eye(3)
    if weight is None:
        weight = whitener(cov)
    return Residual(value, (jac,), weight)


class Stackable:
    """Factor whose measurement data are (N, ...) arrays, named in ``_rows``."""

    _rows: tuple[str, ...] = ()

    @classmethod
    def stack(cls, factors) -> "Stackable":
        """One instance holding the rows of ``factors``, all of this class, in order.

        Its ``keys`` hold, per argument of ``evaluate``, the N keys in order.
        """
        out = cls.__new__(cls)
        out.keys = tuple(zip(*(f.keys for f in factors)))
        for name in cls._rows:
            setattr(out, name, np.concatenate([getattr(f, name) for f in factors]))
        return out


def _pose_rows(pose) -> tuple[np.ndarray, np.ndarray]:
    """A pose argument as stacked rotations (N, 3, 3) and positions (N, 3)."""
    if isinstance(pose, Pose):
        return pose.rotation[None], pose.position[None]
    return pose


class RangeFactor(Stackable):
    """Binary factor between one pose and one anchor bias.

    ``huber_delta`` (whitened units) optionally caps the influence of large
    residuals; it is off by default since outliers are normally handled by
    the predicted-range gate upstream.
    """

    _rows = ("_anchor_id", "_anchor", "_arm", "_arm_skew", "_range", "_inv_sigma", "_huber")

    def __init__(self, pose_key, bias_key, measurement: RangeMeasurement,
                 anchor: Anchor, arm: LeverArm, huber_delta: float | None = None):
        self.keys = (pose_key, bias_key)
        _set_range_rows(self, measurement, anchor, arm, huber_delta)

    def evaluate(self, pose, bias) -> Residual:
        value, j_pose, weight = _range_rows(self, pose, bias)
        return Residual(value, (j_pose, np.ones((len(value), 1))), weight)


class RangeFactorFixedBias(Stackable):
    """Unary range factor with the anchor bias held at a constant.

    Used when bias estimation is disabled: the measurement still constrains
    the pose, but no bias variable enters the problem. It runs the range
    kernel with the bias as a constant column.
    """

    _rows = RangeFactor._rows + ("_bias",)

    def __init__(self, pose_key, measurement: RangeMeasurement, anchor: Anchor,
                 arm: LeverArm, bias: float = 0.0, huber_delta: float | None = None):
        self.keys = (pose_key,)
        _set_range_rows(self, measurement, anchor, arm, huber_delta)
        self._bias = np.array([float(bias)])

    def evaluate(self, pose) -> Residual:
        value, j_pose, weight = _range_rows(self, pose, self._bias)
        return Residual(value, (j_pose,), weight)


def _set_range_rows(f, z: RangeMeasurement, anchor: Anchor, arm: LeverArm, huber_delta):
    f._anchor_id = np.array([anchor.id])
    f._anchor = anchor.position[None]
    f._arm = arm.offset[None]
    f._arm_skew = skew(arm.offset)[None]
    f._range = np.array([z.range])
    f._inv_sigma = np.array([1.0 / z.sigma])
    f._huber = np.array([np.inf if huber_delta is None else float(huber_delta)])


def _range_rows(f, pose, bias):
    """``range_residual`` per row, then Huber: rows past ``_huber`` whitened
    units get their weight shrunk so their influence grows only linearly.

    Returns the residuals (N,), the pose Jacobians (N, 6) and the weights
    (N, 1, 1); the bias Jacobian is one.
    """
    R, p = _pose_rows(pose)
    diff = f._anchor - (R @ f._arm[:, :, None])[:, :, 0] - p
    dist = np.sqrt(np.einsum("ni,ni->n", diff, diff))
    close = dist < MIN_RANGE
    if np.count_nonzero(close):
        raise ValueError(
            f"antenna coincides with anchor {f._anchor_id[np.argmax(close)]}: "
            "range gradient undefined"
        )
    uR = (diff / dist[:, None])[:, None, :] @ R
    j_pose = np.empty((len(dist), 6))
    j_pose[:, :3] = -uR[:, 0]
    j_pose[:, 3:] = (uR @ f._arm_skew)[:, 0]
    value = dist + bias - f._range
    weight = f._inv_sigma.copy()
    wr = np.abs(weight * value)
    over = wr > f._huber
    if np.count_nonzero(over):
        weight[over] *= np.sqrt(f._huber[over] / wr[over])
    return value, j_pose, weight[:, None, None]


class OdometryFactor(Stackable):
    """Binary relative-pose factor from a preintegrated odometry span.

    ``odometry_residual`` per row: log(delta^-1 Ti^-1 Tj), whitened by the
    span's covariance.
    """

    _rows = ("_delta_inv_rotation", "_delta_inv_position", "_weight")

    def __init__(self, key_i, key_j, measurement: PreintegratedOdometry):
        self.keys = (key_i, key_j)
        inv = measurement.delta.inverse()
        self._delta_inv_rotation = inv.rotation[None]
        self._delta_inv_position = inv.position[None]
        self._weight = odometry_weight(measurement.cov)[None]

    def evaluate(self, Ti, Tj) -> Residual:
        Ri, pi = _pose_rows(Ti)
        Rj, pj = _pose_rows(Tj)
        Rit = Ri.transpose(0, 2, 1)
        R_rel = Rit @ Rj
        p_rel = Rit @ (pj - pi)[:, :, None]
        D = self._delta_inv_rotation
        value, jr_inv = batch_log_jr_inv(
            D @ R_rel, (D @ p_rel)[:, :, 0] + self._delta_inv_position
        )
        # Ad(rel^-1), rel^-1 = (Rt, -Rt p) for rel = (R, p), Rt = R^T
        Rt = R_rel.transpose(0, 2, 1)
        j_i = -(jr_inv @ adjoint_rows(Rt, -(Rt @ p_rel)[:, :, 0]))
        return Residual(
            value.reshape(-1), (j_i.reshape(-1, 6), jr_inv.reshape(-1, 6)), self._weight
        )


class PriorFactor:
    """Unary prior on a pose, bias, or vector state."""

    def __init__(self, key, mean, cov):
        self.keys = (key,)
        self.mean = mean
        self._weight = whitener(cov)

    def evaluate(self, x) -> Residual:
        return prior_residual(x, self.mean, None, weight=self._weight)


class WnoaFactor:
    """Binary constant-velocity prior between consecutive [p, v] states."""

    def __init__(self, key_prev, key_next, dt: float, Qw: np.ndarray):
        if dt <= 0.0:
            raise ValueError(f"motion prior needs dt > 0, got {dt}")
        self.keys = (key_prev, key_next)
        self.dt = dt
        self._weight = whitener(wnoa_process_cov(dt, Qw))

    def evaluate(self, x_prev: np.ndarray, x_next: np.ndarray) -> Residual:
        return wnoa_residual(x_prev, x_next, self.dt, None, weight=self._weight)


class OffsetMeasurementFactor:
    """Unary position measurement on a [p, v] state."""

    def __init__(self, key, y: np.ndarray, cov: np.ndarray):
        self.keys = (key,)
        self.y = np.asarray(y, dtype=float)
        self._weight = whitener(cov)

    def evaluate(self, x: np.ndarray) -> Residual:
        return offset_measurement_residual(x, self.y, None, weight=self._weight)
