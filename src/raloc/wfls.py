"""Offset smoother: constant-velocity GP filtering of frame-offset positions.

The range smoother publishes frame offsets at its own low tick rate and they
arrive as noisy steps. This module smooths the position component of that
offset stream under a white-noise-on-acceleration motion prior, carries the
offset rotation through unchanged, and composes the result with fresh
odometry into high-rate corrected world-frame poses.

The model is linear and Gaussian: a [position, velocity] state per offset
measurement, chained by constant-velocity motion factors (``WnoaFactor``),
a zero-mean prior on the first velocity (``VelocityPriorFactor``) and one
position measurement per state (``OffsetMeasurementFactor``). The marginal
of the newest state under that factor graph is exactly the posterior of a
constant-velocity Kalman filter, so the head is computed in closed form:
one predict and one update per measurement, no solver and no window. Past
the newest knot the published sample is the motion model's propagation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .factors import Residual, wnoa_process_cov, wnoa_transition
from .io import config_float
from .lie import Pose
from .preintegration import OdometrySample

STAMP_TOL = 1e-9


@dataclass(frozen=True)
class WflsConfig:
    """Tuning for the offset smoother.

    ``qw`` is the power spectral density of the white acceleration driving
    the motion prior, either one scalar for all axes or a full 3x3 matrix.
    Small values trust the constant-velocity model and smooth hard; large
    values follow the measurements. ``velocity_prior_sigma`` anchors the
    first state's unobserved velocity.
    """

    update_rate: float = 10.0
    qw: float | np.ndarray = 0.1
    velocity_prior_sigma: float = 1.0

    def __post_init__(self):
        for name in ("update_rate", "velocity_prior_sigma"):
            object.__setattr__(self, name, config_float(f"wfls.{name}", getattr(self, name)))
        if self.update_rate <= 0.0:
            raise ValueError("update_rate must be positive")
        q = np.asarray(self.qw, dtype=float)
        if not np.isfinite(q).all():
            raise ValueError(f"qw must be finite, got {self.qw!r}")
        if q.ndim == 0:
            if q <= 0.0:
                raise ValueError("qw must be positive")
            q = float(q) * np.eye(3)
        elif q.shape != (3, 3):
            raise ValueError("qw must be a scalar or a 3x3 matrix")
        else:
            if not np.allclose(q, q.T):
                raise ValueError("qw matrix must be symmetric")
            if np.linalg.eigvalsh(q).min() <= 0.0:
                raise ValueError("qw matrix must be positive definite")
        if self.velocity_prior_sigma <= 0.0:
            raise ValueError("velocity_prior_sigma must be positive")
        object.__setattr__(self, "qw", q)


@dataclass(frozen=True)
class OffsetState:
    """Frame-offset position and its velocity at one stamp."""

    stamp: float
    position: np.ndarray
    velocity: np.ndarray


@dataclass(frozen=True)
class SmoothedOffset:
    """One smoother output.

    ``knot`` is the newest estimated state; ``sample`` is the motion-model
    mean at the update stamp itself, which is what a fixed-cadence output
    series should record. ``rotation`` is the latest offset rotation passed
    through unsmoothed, and ``cov`` the marginal covariance of ``knot``.
    """

    stamp: float
    knot: OffsetState
    sample: OffsetState
    rotation: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class CorrectedPose:
    """World-frame pose from composing a smoothed offset with odometry.

    ``aligned`` is False while no smoothed offset exists yet; the pose is
    then the raw odometry pose. The rotation passthrough carries no
    covariance, so neither does the corrected pose.
    """

    stamp: float
    pose: Pose
    offset_position: np.ndarray
    offset_rotation: np.ndarray
    aligned: bool


class VelocityPriorFactor:
    """Zero-mean prior on the velocity half of one [p, v] state."""

    def __init__(self, key, sigma: float):
        self.keys = (key,)
        self._weight = np.eye(3) / sigma
        jac = np.zeros((3, 6))
        jac[:, 3:] = np.eye(3)
        self._jac = jac

    def evaluate(self, x: np.ndarray) -> Residual:
        return Residual(np.asarray(x[3:], dtype=float), (self._jac,), self._weight)


@dataclass(frozen=True)
class _OffsetMeasurement:
    stamp: float
    position: np.ndarray
    cov: np.ndarray
    rotation: np.ndarray


class Wfls:
    """Constant-velocity Kalman filter over the [position, velocity] offset head."""

    def __init__(self, config: WflsConfig):
        self._config = config
        self._queue: list[_OffsetMeasurement] = []
        self._stamp: float | None = None
        self._mean = np.zeros(6)
        self._cov = np.zeros((6, 6))
        self._last_ingest: float | None = None
        self._last_update: float | None = None
        self._rotation = np.eye(3)
        self._latest: SmoothedOffset | None = None

    @property
    def latest(self) -> SmoothedOffset | None:
        return self._latest

    def ingest_offset(
        self,
        stamp: float,
        position: np.ndarray,
        cov: np.ndarray,
        rotation: np.ndarray,
    ) -> bool:
        """Queue one frame-offset fix; drops non-monotone stamps with a warning."""
        if self._last_ingest is not None and stamp <= self._last_ingest + STAMP_TOL:
            warnings.warn(
                f"offset stamp {stamp} not ahead of {self._last_ingest}; dropped"
            )
            return False
        self._queue.append(
            _OffsetMeasurement(
                stamp,
                np.asarray(position, dtype=float).copy(),
                np.asarray(cov, dtype=float).copy(),
                np.asarray(rotation, dtype=float).copy(),
            )
        )
        self._last_ingest = stamp
        return True

    def update(self, now: float) -> SmoothedOffset:
        """Advance to ``now``: filter in the queued offsets due by then, publish."""
        if self._last_update is not None and now <= self._last_update + STAMP_TOL:
            raise ValueError(f"update stamp {now} does not advance the smoother")
        take = [m for m in self._queue if m.stamp <= now + STAMP_TOL]
        self._queue = [m for m in self._queue if m.stamp > now + STAMP_TOL]
        for m in take:
            self._absorb(m)
        if self._stamp is None:
            raise ValueError("no offset measurements ingested yet")

        x = self._mean
        knot = OffsetState(self._stamp, x[:3].copy(), x[3:].copy())
        ahead = wnoa_transition(now - self._stamp) @ x
        sample = OffsetState(now, ahead[:3], ahead[3:])
        out = SmoothedOffset(now, knot, sample, self._rotation.copy(), self._cov.copy())
        self._latest = out
        self._last_update = now
        return out

    def _absorb(self, m: _OffsetMeasurement) -> None:
        """Predict the head to ``m.stamp`` and update it with the position fix."""
        self._rotation = m.rotation
        if self._stamp is None:
            sigma = self._config.velocity_prior_sigma
            self._mean = np.concatenate([m.position, np.zeros(3)])
            self._cov = scipy.linalg.block_diag(m.cov, sigma**2 * np.eye(3))
            self._stamp = m.stamp
            return
        dt = m.stamp - self._stamp
        phi = wnoa_transition(dt)
        x = phi @ self._mean
        P = phi @ self._cov @ phi.T + wnoa_process_cov(dt, self._config.qw)
        # the measurement sees the position half: H = [I 0]
        gain = np.linalg.solve(P[:3, :3] + m.cov, P[:3, :]).T
        self._mean = x + gain @ (m.position - x[:3])
        P = P - gain @ P[:3, :]
        self._cov = 0.5 * (P + P.T)
        self._stamp = m.stamp

    def correct(self, odom: OdometrySample) -> CorrectedPose:
        """Compose the latest smoothed offset with one odometry sample.

        Uses the newest knot state without velocity extrapolation, so a
        stale offset holds its last value rather than drifting on a guessed
        velocity. Before the first update the odometry pose passes through
        flagged as unaligned.
        """
        latest = self._latest
        if latest is None:
            return CorrectedPose(
                odom.stamp, odom.pose.mean, np.zeros(3), np.eye(3), False
            )
        offset = Pose(latest.rotation, latest.knot.position)
        return CorrectedPose(
            odom.stamp,
            offset @ odom.pose.mean,
            latest.knot.position.copy(),
            latest.rotation.copy(),
            True,
        )
