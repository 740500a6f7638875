"""SO(3)/SE(3) group operations and right-perturbation covariance algebra.

Twist convention used everywhere in this package: a twist is a 6-vector
``xi = [rho, phi]`` with the translational part ``rho`` (meters) in the first
three entries and the rotational part ``phi`` (radians) in the last three.
Uncertain poses follow the right-perturbation convention

    T = T_bar * exp(xi^),   xi ~ N(0, Sigma),

so every 6x6 covariance in this package lives in the body-side tangent space
with the [rho, phi] block ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Below this rotation angle closed-form sinc-like coefficients are replaced
# by their Taylor series to avoid catastrophic cancellation.
SMALL_ANGLE = 1e-2

# Rotations are re-orthonormalized once a composition chain reaches this
# length, bounding round-off drift on long products.
RENORM_CHAIN = 100

# read-only 3x3 identity for the closed-form expressions below, which run
# on every factor evaluation
_I3 = np.eye(3)
_I3.flags.writeable = False


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 skew-symmetric matrix such that skew(a) @ b = cross(a, b)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{what} contains non-finite entries")


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues formula, series fallback for small angles."""
    phi = np.asarray(phi, dtype=float)
    _check_finite(phi, "rotation vector")
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    S = skew(phi)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    return _I3 + a * S + b * (S @ S)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of R.

    Valid for angles up to pi; at exactly pi the axis sign is ambiguous and
    the branch with the first nonzero axis component positive is returned.
    """
    R = np.asarray(R, dtype=float)
    _check_finite(R, "rotation matrix")
    trace = float(np.trace(R))
    w = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    # atan2 of (sin, cos) stays well conditioned at both ends of [0, pi],
    # unlike arccos of the trace whose error blows up as 1/sin(theta)
    sin_theta = float(np.linalg.norm(w))
    theta = float(np.arctan2(sin_theta, 0.5 * (trace - 1.0)))
    if theta < SMALL_ANGLE:
        # w = sin(theta) * axis; invert the sinc factor by series
        theta2 = theta * theta
        return w * (1.0 + theta2 / 6.0 + 7.0 * theta2 * theta2 / 360.0)
    if theta > np.pi - 1e-4:
        # Near pi the antisymmetric part degenerates; recover the axis from
        # the symmetric part S = R + R^T - (trace - 1) I = 2 (1 - cos) v v^T.
        S = R + R.T - (trace - 1.0) * _I3
        j = int(np.argmax(np.diag(S)))
        v = S[:, j]
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError("rotation angle too close to pi to extract an axis")
        v = v / norm
        sign = float(v @ w)
        if sign < 0.0 or (sign == 0.0 and _first_nonzero_negative(v)):
            v = -v
        return theta * v
    # w / sin_theta is the unit axis; scaling it by theta keeps the two
    # factors consistent to rounding (no 1/sin amplification near pi)
    return w * (theta / sin_theta)


def _first_nonzero_negative(v: np.ndarray) -> bool:
    for x in v:
        if x != 0.0:
            return x < 0.0
    return False


def so3_left_jacobian(phi: np.ndarray) -> np.ndarray:
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    S = skew(phi)
    if theta < SMALL_ANGLE:
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
        c = 1.0 / 6.0 - theta2 / 120.0 + theta2 * theta2 / 5040.0
    else:
        b = (1.0 - np.cos(theta)) / theta2
        c = (theta - np.sin(theta)) / (theta2 * theta)
    return _I3 + b * S + c * (S @ S)


def so3_left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    S = skew(phi)
    if theta < SMALL_ANGLE:
        e = 1.0 / 12.0 + theta2 / 720.0 + theta2 * theta2 / 30240.0
    else:
        e = (1.0 / theta2) - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return _I3 - 0.5 * S + e * (S @ S)


def _orthonormalize(R: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(R)
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        out = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return out


@dataclass(frozen=True)
class Pose:
    """SE(3) element stored as a 3x3 rotation matrix and a position vector."""

    rotation: np.ndarray
    position: np.ndarray
    # length of the composition chain that produced this pose; once it hits
    # RENORM_CHAIN the rotation is re-orthonormalized and the count reset
    chain: int = field(default=0, compare=False, repr=False)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        R = self.rotation @ other.rotation
        p = self.rotation @ other.position + self.position
        chain = max(self.chain, other.chain) + 1
        if chain >= RENORM_CHAIN:
            R = _orthonormalize(R)
            chain = 0
        return Pose(R, p, chain)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        Rt = self.rotation.T
        return Pose(Rt, -(Rt @ self.position), self.chain)

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(point, dtype=float) + self.position

    def matrix(self) -> np.ndarray:
        M = np.eye(4)
        M[:3, :3] = self.rotation
        M[:3, 3] = self.position
        return M

    @staticmethod
    def from_matrix(M: np.ndarray) -> "Pose":
        return Pose(np.array(M[:3, :3], dtype=float), np.array(M[:3, 3], dtype=float))


@dataclass(frozen=True)
class PoseWithCovariance:
    """Pose with 6x6 right-perturbation covariance in [rho, phi] ordering."""

    mean: Pose
    cov: np.ndarray


def exp(xi: np.ndarray) -> Pose:
    """SE(3) exponential of a twist [rho, phi]."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (6,):
        raise ValueError("twist must be a 6-vector [rho, phi]")
    _check_finite(xi, "twist")
    rho, phi = xi[:3], xi[3:]
    R = so3_exp(phi)
    p = so3_left_jacobian(phi) @ rho
    return Pose(R, p)


def log(T: Pose) -> np.ndarray:
    """Twist [rho, phi] such that exp(log(T)) = T. Rotation angle must be < pi."""
    phi = so3_log(T.rotation)
    rho = so3_left_jacobian_inv(phi) @ T.position
    return np.concatenate([rho, phi])


def se3_hat(xi: np.ndarray) -> np.ndarray:
    """4x4 Lie-algebra matrix of a twist [rho, phi]."""
    out = np.zeros((4, 4))
    out[:3, :3] = skew(xi[3:])
    out[:3, 3] = xi[:3]
    return out


def adjoint(T: Pose) -> np.ndarray:
    """6x6 Adjoint satisfying exp((Ad_T xi)^) = T exp(xi^) T^-1."""
    Ad = np.zeros((6, 6))
    Ad[:3, :3] = T.rotation
    Ad[:3, 3:] = skew(T.position) @ T.rotation
    Ad[3:, 3:] = T.rotation
    return Ad


def se3_ad(xi: np.ndarray) -> np.ndarray:
    """6x6 adjoint of a twist (the algebra-level bracket matrix)."""
    S = skew(xi[3:])
    out = np.zeros((6, 6))
    out[:3, :3] = S
    out[:3, 3:] = skew(xi[:3])
    out[3:, 3:] = S
    return out


def _jacobian_q_block(rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Translation-rotation coupling block of the SE(3) left Jacobian."""
    theta2 = float(phi @ phi)
    theta = np.sqrt(theta2)
    P = skew(rho)
    S = skew(phi)
    SP = S @ P
    PS = P @ S
    SPS = SP @ S
    if theta < SMALL_ANGLE:
        c1 = 1.0 / 6.0 - theta2 / 120.0 + theta2 * theta2 / 5040.0
        c2 = -1.0 / 24.0 + theta2 / 720.0 - theta2 * theta2 / 40320.0
        c3 = -1.0 / 120.0 + theta2 / 5040.0 - theta2 * theta2 / 362880.0
    else:
        theta4 = theta2 * theta2
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        c1 = (theta - sin_t) / (theta2 * theta)
        c2 = (1.0 - theta2 / 2.0 - cos_t) / theta4
        c3 = (theta - sin_t - theta2 * theta / 6.0) / (theta4 * theta)
    return (
        0.5 * P
        + c1 * (SP + PS + SPS)
        - c2 * (S @ SP + PS @ S - 3.0 * SPS)
        - 0.5 * (c2 - 3.0 * c3) * (SPS @ S + S @ SPS)
    )


def left_jacobian(xi: np.ndarray) -> np.ndarray:
    """6x6 SE(3) left Jacobian of a twist [rho, phi]."""
    xi = np.asarray(xi, dtype=float)
    J = so3_left_jacobian(xi[3:])
    out = np.zeros((6, 6))
    out[:3, :3] = J
    out[:3, 3:] = _jacobian_q_block(xi[:3], xi[3:])
    out[3:, 3:] = J
    return out


def left_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    Jinv = so3_left_jacobian_inv(xi[3:])
    Q = _jacobian_q_block(xi[:3], xi[3:])
    out = np.zeros((6, 6))
    out[:3, :3] = Jinv
    out[:3, 3:] = -Jinv @ Q @ Jinv
    out[3:, 3:] = Jinv
    return out


def right_jacobian(xi: np.ndarray) -> np.ndarray:
    return left_jacobian(-np.asarray(xi, dtype=float))


def right_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    return left_jacobian_inv(-np.asarray(xi, dtype=float))


# Batched forms over a leading axis of N rows. Each row takes the branch the
# scalar function would take (small-angle series, generic formula, near-pi
# axis recovery), chosen by masks, so row n equals the scalar result on row n
# to rounding. A pose row is a rotation (3, 3) and a position (3,) taken
# from stacked arrays of shape (N, 3, 3) and (N, 3).

# skew_rows(v) = (v @ _SKEW).reshape(N, 3, 3); every entry is exact
_SKEW = np.zeros((3, 9))
_SKEW[[2, 1, 2, 0, 1, 0], [1, 2, 3, 5, 6, 7]] = [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0]
_SKEW.flags.writeable = False

# The small-angle series above as tables: row k holds the weights of
# [1, theta^2, theta^4] in one coefficient.
_POWERS = np.arange(3.0)[:, None]
_EXP_SERIES = np.array([
    [1.0, -1.0 / 6.0, 1.0 / 120.0],  # so3_exp a
    [0.5, -1.0 / 24.0, 1.0 / 720.0],  # so3_exp b, so3_left_jacobian b
    [1.0 / 6.0, -1.0 / 120.0, 1.0 / 5040.0],  # so3_left_jacobian c
])
_E = np.array([1.0 / 12.0, 1.0 / 720.0, 1.0 / 30240.0])  # so3_left_jacobian_inv e
_C1, _C2, _C3 = (
    np.array([1.0 / 6.0, -1.0 / 120.0, 1.0 / 5040.0]),  # _jacobian_q_block c1
    np.array([-1.0 / 24.0, 1.0 / 720.0, -1.0 / 40320.0]),  # c2
    np.array([-1.0 / 120.0, 1.0 / 5040.0, -1.0 / 362880.0]),  # c3
)
# e, c1, c2, then c1 + 3 c2 and c2 - 3 c3 as _jr_inv_rows uses them
_JR_INV_SERIES = np.array([_E, _C1, _C2, _C1 + 3.0 * _C2, _C2 - 3.0 * _C3])
# so3_log's theta / sin(theta), then the above at the log's angle
_LOG_SERIES = np.vstack([[1.0, 1.0 / 6.0, 7.0 / 360.0], _JR_INV_SERIES])
# R.reshape(N, 9) @ _VEE_TRACE = [w, trace], w = vee(R - R^T) / 2 as in so3_log
_VEE_TRACE = np.zeros((9, 4))
_VEE_TRACE[[7, 5, 2, 6, 3, 1, 0, 4, 8], [0, 0, 1, 1, 2, 2, 3, 3, 3]] = [
    0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 1.0, 1.0, 1.0
]
_VEE_TRACE.flags.writeable = False


def skew_rows(v: np.ndarray) -> np.ndarray:
    """(N, 3, 3) skew matrices of the rows of an (N, 3) array."""
    return (v @ _SKEW).reshape(-1, 3, 3)


def adjoint_rows(R: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(N, 6, 6) Adjoints of the pose rows (R, p), each as ``adjoint`` builds it."""
    Ad = np.zeros((len(R), 6, 6))
    Ad[:, :3, :3] = R
    Ad[:, :3, 3:] = skew_rows(p) @ R
    Ad[:, 3:, 3:] = R
    return Ad


def _coefficients(small, theta2, series, closed, *args) -> np.ndarray:
    """Coefficient rows (k, N): the ``series`` table in theta^2 where ``small``,
    ``closed(*args)`` elsewhere; each side is computed on its own rows only."""
    n_small = np.count_nonzero(small)
    if n_small == len(small):
        return series @ theta2**_POWERS
    if n_small == 0:
        return closed(*args)
    out = np.empty((len(series), len(theta2)))
    out[:, small] = series @ theta2[small] ** _POWERS
    big = ~small
    out[:, big] = closed(*(a[big] for a in args))
    return out


def _exp_closed(theta2, theta):
    sin_t = np.sin(theta)
    return np.array([
        sin_t / theta, (1.0 - np.cos(theta)) / theta2, (theta - sin_t) / (theta2 * theta)
    ])


def _inv_e(theta2, theta, sin_t, cos_t):
    return (1.0 / theta2) - (1.0 + cos_t) / (2.0 * theta * sin_t)


def _jr_inv_closed(theta2, theta):
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    theta4 = theta2 * theta2
    c1 = (theta - sin_t) / (theta2 * theta)
    c2 = (1.0 - theta2 / 2.0 - cos_t) / theta4
    c3 = (theta - sin_t - theta2 * theta / 6.0) / (theta4 * theta)
    return np.array([_inv_e(theta2, theta, sin_t, cos_t), c1, c2, c1 + 3.0 * c2, c2 - 3.0 * c3])


def _log_closed(theta2, theta, sin_theta):
    return np.vstack([theta / sin_theta, _jr_inv_closed(theta2, theta)])


def _small(phi: np.ndarray):
    theta2 = np.einsum("ni,ni->n", phi, phi)
    theta = np.sqrt(theta2)
    return theta < SMALL_ANGLE, theta2, theta


def batch_exp(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``exp`` of (N, 6) twists: rotations (N, 3, 3), positions (N, 3)."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != 6:
        raise ValueError("twists must be an (N, 6) array of [rho, phi] rows")
    _check_finite(xi, "twist")
    phi = xi[:, 3:]
    small, theta2, theta = _small(phi)
    coef = _coefficients(small, theta2, _EXP_SERIES, _exp_closed, theta2, theta)
    S = skew_rows(phi)
    # so3_exp (a, b) and so3_left_jacobian (b, c) at once
    RJ = _I3 + coef[:2, :, None, None] * S + coef[1:, :, None, None] * (S @ S)
    return RJ[0], (RJ[1] @ xi[:, :3, None])[:, :, 0]


def batch_log(R: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise ``log`` of stacked poses: (N, 6) twists [rho, phi]."""
    return _log_rows(R, p)[0]


def batch_log_jr_inv(R: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``batch_log`` rows and ``batch_right_jacobian_inv`` of them, sharing the angle terms."""
    xi, parts = _log_rows(R, p)
    return xi, _jr_inv_rows(*parts)


def _log_rows(R, p):
    # the twists, and what _jr_inv_rows needs of them
    R = np.asarray(R, dtype=float)
    _check_finite(R, "rotation matrix")
    w_trace = R.reshape(-1, 9) @ _VEE_TRACE
    w, trace = w_trace[:, :3], w_trace[:, 3]
    sin_theta = np.sqrt(np.einsum("ni,ni->n", w, w))
    theta = np.arctan2(sin_theta, 0.5 * (trace - 1.0))
    theta2 = theta * theta
    # so3_log's scale of w, then _JR_INV_SERIES's coefficients at |phi| = theta
    coef = _coefficients(
        theta < SMALL_ANGLE, theta2, _LOG_SERIES, _log_closed, theta2, theta, sin_theta
    )
    phi = w * coef[0][:, None]
    near = theta > np.pi - 1e-4
    if np.count_nonzero(near):
        phi[near] = theta[near, None] * _near_pi_axes(R[near], trace[near], w[near])
    S, SS, jinv = _jinv_rows(phi, coef[1])
    # so3_left_jacobian_inv(phi) = I - S / 2 + e S S = jinv^T
    rho = (jinv.transpose(0, 2, 1) @ np.asarray(p, dtype=float)[:, :, None])[:, :, 0]
    return np.concatenate([rho, phi], axis=1), (rho, phi, S, SS, jinv, coef[1:])


def _near_pi_axes(R: np.ndarray, trace: np.ndarray, w: np.ndarray) -> np.ndarray:
    # so3_log's near-pi branch: the axis from the symmetric part, sign from w
    S = R + R.transpose(0, 2, 1) - (trace - 1.0)[:, None, None] * _I3
    rows = np.arange(len(S))
    v = S[rows, :, np.argmax(np.diagonal(S, axis1=1, axis2=2), axis=1)]
    norm = np.sqrt(np.einsum("ni,ni->n", v, v))
    if (norm < 1e-12).any():
        raise ValueError("rotation angle too close to pi to extract an axis")
    v = v / norm[:, None]
    sign = np.einsum("ni,ni->n", v, w)
    first = v[rows, np.argmax(v != 0.0, axis=1)]
    flip = (sign < 0.0) | ((sign == 0.0) & (first < 0.0))
    v[flip] = -v[flip]
    return v


def batch_right_jacobian_inv(xi: np.ndarray) -> np.ndarray:
    """Row-wise ``right_jacobian_inv`` of (N, 6) twists: (N, 6, 6)."""
    xi = np.asarray(xi, dtype=float)
    rho, phi = xi[:, :3], xi[:, 3:]
    small, theta2, theta = _small(phi)
    coef = _coefficients(small, theta2, _JR_INV_SERIES, _jr_inv_closed, theta2, theta)
    return _jr_inv_rows(rho, phi, *_jinv_rows(phi, coef[0]), coef)


def _jinv_rows(phi: np.ndarray, e: np.ndarray):
    # skew(phi), its square, and so3_left_jacobian_inv(-phi) = I + S / 2 + e S S
    S = skew_rows(phi)
    SS = S @ S
    return S, SS, _I3 + 0.5 * S + e[:, None, None] * SS


def _jr_inv_rows(rho, phi, S, SS, jinv, coef) -> np.ndarray:
    # right_jacobian_inv(xi) = left_jacobian_inv(-xi): the diagonal blocks are
    # jinv, the corner is -jinv Q jinv with Q = _jacobian_q_block(-rho, -phi).
    # With P = skew(rho), A = S P, B = S A and d = rho . phi, the identities
    # P S = A^T, P S S = -B^T, S P S = -d S and S P S S + S S P S = -2 d S S
    # give Q = c1 (A + A^T) + c2 (B - B^T) + d (k1 S + k2 S S) - P / 2,
    # where k1 = c1 + 3 c2 and k2 = c2 - 3 c3.
    _, c1, c2, k1, k2 = coef[:, :, None, None]
    P = skew_rows(rho)
    A = S @ P
    B = S @ A
    d = rho[:, None, :] @ phi[:, :, None]
    Q = (
        c1 * (A + A.transpose(0, 2, 1))
        + c2 * (B - B.transpose(0, 2, 1))
        + d * (k1 * S + k2 * SS)
        - 0.5 * P
    )
    out = np.zeros((len(rho), 6, 6))
    out[:, :3, :3] = jinv
    out[:, :3, 3:] = -jinv @ Q @ jinv
    out[:, 3:, 3:] = jinv
    return out


def retract_poses(poses, xi: np.ndarray) -> list[Pose]:
    """``T @ exp(xi_n)`` for each pose and (N, 6) twist row, by one batched exp.

    Each row keeps ``Pose.compose``'s chain count and re-orthonormalization.
    """
    dR, dp = batch_exp(xi)
    R = np.array([T.rotation for T in poses])
    p = np.array([T.position for T in poses])
    R_out = R @ dR
    p_out = (R @ dp[:, :, None])[:, :, 0] + p
    out = []
    for T, Rn, pn in zip(poses, R_out, p_out):
        chain = T.chain + 1
        if chain >= RENORM_CHAIN:
            Rn, chain = _orthonormalize(Rn), 0
        # copies: a pose kept for long must not hold the whole stack alive
        out.append(Pose(Rn.copy(), pn.copy(), chain))
    return out


def symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def transport_covariance(cov: np.ndarray, T: Pose) -> np.ndarray:
    """Map a right-perturbation covariance through a frame change by T.

    Returns Ad_T cov Ad_T^T, re-symmetrized.
    """
    Ad = adjoint(T)
    return symmetrize(Ad @ cov @ Ad.T)
