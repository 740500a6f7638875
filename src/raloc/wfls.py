"""Offset smoother: constant-velocity GP filtering of frame-offset positions.

The range smoother publishes frame offsets at its own low tick rate and they
arrive as noisy steps. This module smooths the position component of that
offset stream under a white-noise-on-acceleration motion prior, carries the
offset rotation through unchanged, and composes the result with fresh
odometry into high-rate corrected world-frame poses.

States are [position, velocity] stacked vectors, one per ingested offset
measurement, chained by constant-velocity motion factors and marginalized
out of the lag window as they age. Between and beyond the measurement knots
the smoothed trajectory is queried through the motion model itself, which
keeps the published series consistent with the prior.

Thread contract: ``ingest_offset`` only enqueues under a short lock;
``update`` drains the queue and solves; ``correct`` composes the last
published snapshot and may be called at high rate concurrently.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .factors import (
    OffsetMeasurementFactor,
    Residual,
    WnoaFactor,
    wnoa_process_cov,
    wnoa_transition,
)
from .io import config_float
from .lie import Pose
from .preintegration import OdometrySample
from .solver import (
    FactorGraph,
    SolverOptions,
    VariableKey,
    marginal_covariances,
    marginalize,
    optimize,
)

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

    window: float = 1.0
    update_rate: float = 10.0
    qw: float | np.ndarray = 0.1
    velocity_prior_sigma: float = 1.0
    solver: SolverOptions = SolverOptions()

    def __post_init__(self):
        for name in ("window", "update_rate", "velocity_prior_sigma"):
            object.__setattr__(self, name, config_float(f"wfls.{name}", getattr(self, name)))
        if self.window <= 0.0 or self.update_rate <= 0.0:
            raise ValueError("window and update_rate must be positive")
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
    """Fixed-lag smoother over [position, velocity] frame-offset states."""

    def __init__(self, config: WflsConfig):
        self._config = config
        self._lock = threading.Lock()
        self._graph = FactorGraph()
        self._queue: list[_OffsetMeasurement] = []
        self._keys: list[VariableKey] = []
        self._count = 0
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
        with self._lock:
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
        """Advance to ``now``: absorb queued offsets, slide, solve, publish."""
        config = self._config
        with self._lock:
            if self._last_update is not None and now <= self._last_update + STAMP_TOL:
                raise ValueError(f"update stamp {now} does not advance the smoother")
            take = [m for m in self._queue if m.stamp <= now + STAMP_TOL]
            self._queue = [m for m in self._queue if m.stamp > now + STAMP_TOL]

        for m in take:
            key = VariableKey.offset(self._count, m.stamp)
            self._count += 1
            if self._keys:
                prev = self._keys[-1]
                dt = m.stamp - prev.stamp
                value = wnoa_transition(dt) @ self._graph.values[prev]
                self._graph.add_variable(key, value)
                self._graph.add_factor(WnoaFactor(prev, key, dt, config.qw))
            else:
                value = np.concatenate([m.position, np.zeros(3)])
                self._graph.add_variable(key, value)
                self._graph.add_factor(
                    VelocityPriorFactor(key, config.velocity_prior_sigma)
                )
            self._graph.add_factor(OffsetMeasurementFactor(key, m.position, m.cov))
            self._keys.append(key)
            self._rotation = m.rotation

        if not self._keys:
            raise ValueError("no offset measurements ingested yet")

        keep_from = now - config.window - STAMP_TOL
        drop = [k for k in self._keys[:-1] if k.stamp < keep_from]
        if drop:
            marginalize(self._graph, drop)
            dropped = set(drop)
            self._keys = [k for k in self._keys if k not in dropped]

        report = optimize(self._graph, config.solver)
        newest = self._keys[-1]
        val = self._graph.values[newest]
        knot = OffsetState(newest.stamp, val[:3].copy(), val[3:].copy())
        sample = self.query(now)
        cov = marginal_covariances(self._graph, [newest], report.linearization)[newest]
        out = SmoothedOffset(now, knot, sample, self._rotation.copy(), cov)
        with self._lock:
            self._latest = out
            self._last_update = now
        return out

    def query(self, stamp: float) -> OffsetState:
        """Motion-model posterior mean at an arbitrary stamp.

        Between two knots this is the standard sparse-GP interpolation from
        the bracketing states; outside the knot span it is constant-velocity
        propagation from the nearest knot. Call from the estimation context
        (it reads live graph values).
        """
        if not self._keys:
            raise ValueError("no offset states yet")
        stamps = [k.stamp for k in self._keys]
        if stamp <= stamps[0] + STAMP_TOL:
            x = self._propagate(self._keys[0], stamp)
        elif stamp >= stamps[-1] - STAMP_TOL:
            x = self._propagate(self._keys[-1], stamp)
        else:
            hi = int(np.searchsorted(np.asarray(stamps), stamp))
            x = self._interpolate(self._keys[hi - 1], self._keys[hi], stamp)
        return OffsetState(stamp, x[:3].copy(), x[3:].copy())

    def _propagate(self, key: VariableKey, stamp: float) -> np.ndarray:
        return wnoa_transition(stamp - key.stamp) @ self._graph.values[key]

    def _interpolate(self, ki: VariableKey, kj: VariableKey, stamp: float) -> np.ndarray:
        qw = self._config.qw
        xi = self._graph.values[ki]
        xj = self._graph.values[kj]
        dt_full = kj.stamp - ki.stamp
        tau = stamp - ki.stamp
        q_tau = wnoa_process_cov(tau, qw)
        phi_j_tau = wnoa_transition(dt_full - tau)
        q_full = wnoa_process_cov(dt_full, qw)
        psi = q_tau @ phi_j_tau.T @ np.linalg.inv(q_full)
        return wnoa_transition(tau) @ xi + psi @ (xj - wnoa_transition(dt_full) @ xi)

    def correct(self, odom: OdometrySample) -> CorrectedPose:
        """Compose the latest smoothed offset with one odometry sample.

        Uses the newest knot state without velocity extrapolation, so a
        stale offset holds its last value rather than drifting on a guessed
        velocity. Before the first update the odometry pose passes through
        flagged as unaligned.
        """
        with self._lock:
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

    def window_states(self) -> list[OffsetState]:
        """Current [p, v] values of every state in the window."""
        out = []
        for k in self._keys:
            val = self._graph.values[k]
            out.append(OffsetState(k.stamp, val[:3].copy(), val[3:].copy()))
        return out
