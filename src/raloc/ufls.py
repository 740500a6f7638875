"""Tightly coupled fixed-lag smoother fusing UWB ranges with odometry.

States are full robot poses in the anchor (world) frame, created on a fixed
update tick. Odometry between ticks is folded into one preintegrated factor;
each accepted range becomes a factor on the nearest state, with the
odometry-derived motion between the state stamp and the range stamp folded
into that factor's lever arm so the stamp mismatch does not bias the fit.
Per-anchor range biases are estimated as scalar variables chained across
windows by a random-walk prior. States older than the lag window are folded
into a dense marginal prior.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .factors import (
    Anchor,
    LeverArm,
    OdometryFactor,
    PriorFactor,
    RangeFactor,
    RangeFactorFixedBias,
    RangeMeasurement,
    Residual,
    Stackable,
)
from .io import config_float, parts_to_pose
from .lie import Pose, PoseWithCovariance, transport_covariance
from .preintegration import (
    OdometryAccumulator,
    OdometrySample,
    PreintegratedOdometry,
    relative_motion,
    sample_at,
    shadow_sample,
)
from .solver import (
    FactorGraph,
    SolverOptions,
    VariableKey,
    marginal_covariances,
    marginalize,
    optimize,
)

STAMP_TOL = 1e-9


# UflsConfig fields held as floats; range_sigma and huber_delta may be None
_FLOAT_FIELDS = (
    "window", "update_rate", "gate", "range_sigma", "bias_walk_sigma",
    "initial_sigma_trans", "initial_sigma_rot", "huber_delta",
    "gap_threshold", "gap_sigma_trans", "gap_sigma_rot",
)


@dataclass(frozen=True)
class UflsConfig:
    """Tuning for the range-aided smoother.

    ``gate`` is the innovation threshold in meters; it must stay well above
    the range noise (at least 3 sigma) or clean measurements get rejected.
    ``range_sigma`` overrides the per-record sigma when set.
    ``bias_walk_sigma`` is the per-window drift of each anchor bias; zero
    keeps one constant bias variable per anchor for the whole run.
    ``gap_threshold`` flags odometry dropouts; spans bridging a dropout get
    their covariance inflated by the gap sigmas times the gap duration.
    ``initial_pose`` is a Pose or the 7 values px py pz qx qy qz qw of a
    config file. Numbers arrive as a config file holds them and are made
    floats here; a value that is not one raises ValueError.
    """

    window: float = 1.0
    update_rate: float = 5.0
    gate: float = 0.5
    range_sigma: float | None = None
    bias_estimation: bool = True
    bias_walk_sigma: float = 0.05
    lever_arm: np.ndarray = field(default_factory=lambda: np.zeros(3))
    initial_pose: Pose | None = None
    initial_sigma_trans: float = 0.1
    initial_sigma_rot: float = 0.1
    huber_delta: float | None = None
    gap_threshold: float = 0.5
    gap_sigma_trans: float = 1.0
    gap_sigma_rot: float = 0.5
    relative_odometry: bool = False
    solver: SolverOptions = SolverOptions()

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None or name not in ("range_sigma", "huber_delta"):
                object.__setattr__(self, name, config_float(f"ufls.{name}", value))
        object.__setattr__(self, "bias_estimation", bool(self.bias_estimation))
        if self.initial_pose is not None and not isinstance(self.initial_pose, Pose):
            vals = np.asarray(self.initial_pose, dtype=float)
            if vals.shape != (7,):
                raise ValueError("ufls.initial_pose needs 7 values: px py pz qx qy qz qw")
            object.__setattr__(self, "initial_pose", parts_to_pose(vals[:3], vals[3:]))
        if self.window <= 0.0 or self.update_rate <= 0.0:
            raise ValueError("window and update_rate must be positive")
        if self.gate <= 0.0:
            raise ValueError("gate must be positive")
        if self.range_sigma is not None and self.gate < 3.0 * self.range_sigma:
            raise ValueError(
                f"gate {self.gate} below 3x range sigma {self.range_sigma}: "
                "clean measurements would be rejected"
            )
        object.__setattr__(self, "lever_arm", np.asarray(self.lever_arm, dtype=float))

    def initial_prior(self) -> PoseWithCovariance | None:
        """Prior on the first state from ``initial_pose``; None when unset."""
        if self.initial_pose is None:
            return None
        return PoseWithCovariance(
            self.initial_pose,
            np.diag([self.initial_sigma_trans**2] * 3 + [self.initial_sigma_rot**2] * 3),
        )


@dataclass(frozen=True)
class UflsEstimate:
    """One smoother output: world-frame pose with covariance at ``stamp``.

    ``biases`` maps anchor id to (mean, marginal sigma) for every anchor
    with an active bias variable. ``matched_odometry`` is the odometry-frame
    pose interpolated at the estimate stamp, the pairing needed to express
    this estimate as a frame offset. ``rejected_count`` counts gate
    rejections since construction.
    """

    stamp: float
    pose: PoseWithCovariance
    biases: dict
    matched_odometry: Pose
    rejected_count: int
    flags: frozenset


class BiasWalkFactor(Stackable):
    """Random-walk link between consecutive bias epochs of one anchor."""

    _rows = ("_inv_sigma",)

    def __init__(self, key_prev, key_next, sigma: float):
        if sigma <= 0.0:
            raise ValueError("bias walk sigma must be positive")
        self.keys = (key_prev, key_next)
        self._inv_sigma = np.array([1.0 / sigma])

    def evaluate(self, b_prev, b_next) -> Residual:
        value = np.subtract(b_next, b_prev, dtype=float).reshape(-1)
        ones = np.ones((len(value), 1))
        return Residual(value, (-ones, ones), self._inv_sigma[:, None, None])


def multilaterate(
    anchor_positions: np.ndarray, ranges: np.ndarray
) -> tuple[np.ndarray, float]:
    """Robust position fix from simultaneous anchor ranges.

    A linear closed-form seed (differencing the squared range equations)
    is refined with a Cauchy loss, then measurements far off the consensus
    are trimmed and the survivors refit plainly, so a spiked range does not
    drag the fix. Returns the position and the inlier residual RMS.
    """
    a = np.asarray(anchor_positions, dtype=float)
    r = np.asarray(ranges, dtype=float)
    if a.shape[0] < 4:
        raise ValueError("multilateration needs ranges from at least 4 anchors")
    lhs = 2.0 * (a[1:] - a[0])
    rhs = (
        r[0] ** 2
        - r[1:] ** 2
        + np.sum(a[1:] ** 2, axis=1)
        - np.sum(a[0] ** 2)
    )
    seed, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)

    def residual(p):
        return np.linalg.norm(a - p, axis=1) - r

    fit = scipy.optimize.least_squares(residual, seed, loss="cauchy", f_scale=0.3)
    scale = max(float(np.median(np.abs(fit.fun))), 0.05)
    keep = np.abs(fit.fun) < 3.0 * scale
    if keep.sum() >= 4:
        def trimmed(p):
            return np.linalg.norm(a[keep] - p, axis=1) - r[keep]

        fit = scipy.optimize.least_squares(trimmed, fit.x)
    rms = float(np.sqrt(np.mean(fit.fun**2)))
    return fit.x, rms


def bootstrap_prior(
    picks, anchors: dict, samples: list[OdometrySample], stamp: float
) -> PoseWithCovariance | None:
    """Loose pose prior at ``stamp`` from a multilateration fix.

    ``picks`` holds one range per anchor, chosen by the caller; with fewer
    than 4 there is no fix and the result is None. The odometry motion
    between ``stamp`` and each range stamp is folded into the anchor
    position (identity-rotation approximation: good enough for a loose
    prior), and each range loses its anchor's prior bias mean. Rotation
    stays unconstrained.
    """
    picks = list(picks)
    if len(picks) < 4:
        return None
    positions, ranges = [], []
    for z in picks:
        anchor = anchors[z.anchor_id]
        motion = relative_motion(samples, stamp, z.stamp)
        positions.append(anchor.position - motion.position)
        ranges.append(z.range - anchor.bias_prior_mean)
    position, rms = multilaterate(np.asarray(positions), np.asarray(ranges))
    # a four or five range fix is nearly exactly determined, so a small
    # residual says little about the actual error; keep the prior loose
    # unless the fix carries real redundancy
    floor = 0.3 if len(picks) >= 6 else 1.0
    sigma = max(floor, 2.0 * rms)
    return PoseWithCovariance(
        Pose(np.eye(3), position), np.diag([sigma**2] * 3 + [np.pi**2] * 3)
    )


def range_factor(
    pose_key,
    bias_key,
    z: RangeMeasurement,
    anchor: Anchor,
    arm: LeverArm,
    samples: list[OdometrySample],
    huber_delta: float | None = None,
):
    """Range factor on the state at ``pose_key.stamp`` for a range taken at ``z.stamp``.

    The odometry motion between the two stamps is folded into the lever
    arm, so the stamp mismatch does not bias the fit. Without a
    ``bias_key`` the anchor bias is held at its prior mean.
    """
    motion = relative_motion(samples, pose_key.stamp, z.stamp)
    arm_eff = LeverArm(motion.position + motion.rotation @ arm.offset)
    if bias_key is None:
        return RangeFactorFixedBias(
            pose_key, z, anchor, arm_eff, anchor.bias_prior_mean, huber_delta
        )
    return RangeFactor(pose_key, bias_key, z, anchor, arm_eff, huber_delta)


def offset_position_measurement(
    offset: PoseWithCovariance,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a frame offset into what the offset smoother consumes.

    Returns the offset position, its world-frame 3x3 covariance (the
    right-perturbation block rotated out of the body frame), and the offset
    rotation for pass-through.
    """
    rot = offset.mean.rotation
    cov = rot @ offset.cov[:3, :3] @ rot.T
    return offset.mean.position.copy(), 0.5 * (cov + cov.T), rot.copy()


class Ufls:
    """Fixed-lag range/odometry smoother over world-frame pose states."""

    def __init__(self, config: UflsConfig, anchors: list):
        self._config = config
        self._anchors = {a.id: a for a in anchors}
        if not self._anchors:
            raise ValueError("need at least one anchor")
        self._arm = LeverArm(config.lever_arm)
        self._graph = FactorGraph()
        self._acc = OdometryAccumulator(relative=config.relative_odometry)
        # gate shadow: absolute odometry poses, fresh at ingest time
        self._raw: list[OdometrySample] = []
        self._odom_queue: list[OdometrySample] = []
        self._range_queue: list[RangeMeasurement] = []
        self._gaps: list[tuple[float, float]] = []
        self._last_raw_stamp: float | None = None
        self._pose_keys: list[VariableKey] = []
        self._pose_count = 0
        self._bias_epochs: dict[tuple[int, int], VariableKey] = {}
        self._current_bias: dict[int, VariableKey] = {}
        self._ranges_per_state: dict[VariableKey, int] = {}
        self._latest: UflsEstimate | None = None
        self._rejected = 0
        self._t0: float | None = None
        self._startup_until: float | None = None
        self._bootstrap_ranges: list[RangeMeasurement] = []
        self._bootstrap_increments: list[OdometrySample] = []
        self._retired: list[tuple[float, Pose]] = []

    @property
    def latest(self) -> UflsEstimate | None:
        return self._latest

    @property
    def started(self) -> bool:
        return self._t0 is not None

    def window_states(self) -> list[tuple[float, Pose]]:
        """Stamps and current pose values of every state in the window."""
        return [(k.stamp, self._graph.values[k]) for k in self._pose_keys]

    def smoothed_trajectory(self) -> list[tuple[float, Pose]]:
        """Final value of every state created so far.

        States that already left the window contribute the value they had
        when dropped, i.e. after absorbing a full lag of later measurements;
        states still in the window contribute their current value. This is
        the smoother's considered trajectory, as opposed to the real-time
        head estimates returned by ``update``.
        """
        return self._retired + self.window_states()

    def ingest_odometry(self, sample: OdometrySample) -> bool:
        """Queue one odometry sample; drops non-monotone stamps with a warning."""
        if (
            self._last_raw_stamp is not None
            and sample.stamp <= self._last_raw_stamp + STAMP_TOL
        ):
            warnings.warn(
                f"odometry stamp {sample.stamp} not ahead of "
                f"{self._last_raw_stamp}; sample dropped"
            )
            return False
        if (
            self._last_raw_stamp is not None
            and sample.stamp - self._last_raw_stamp > self._config.gap_threshold
        ):
            self._gaps.append((self._last_raw_stamp, sample.stamp))
        prev = self._raw[-1] if self._raw else None
        self._raw.append(shadow_sample(prev, sample, self._config.relative_odometry))
        self._odom_queue.append(sample)
        self._last_raw_stamp = sample.stamp
        horizon = sample.stamp - self._config.window - 1.0
        while len(self._raw) > 2 and self._raw[1].stamp < horizon:
            self._raw.pop(0)
        return True

    def ingest_range(self, z: RangeMeasurement) -> bool:
        """Gate and queue one range; returns False when rejected or unknown."""
        anchor = self._anchors.get(z.anchor_id)
        if anchor is None:
            warnings.warn(f"range from unknown anchor {z.anchor_id} dropped")
            return False
        if self._config.range_sigma is not None and z.sigma != self._config.range_sigma:
            z = RangeMeasurement(z.stamp, z.anchor_id, z.range, self._config.range_sigma)
        predicted = self._predict_range(z.stamp, anchor)
        if predicted is not None:
            gate = self._config.gate
            if self._startup_until is not None and z.stamp < self._startup_until:
                gate *= 3.0
            if abs(z.range - predicted) > gate:
                self._rejected += 1
                return False
        self._range_queue.append(z)
        return True

    def _predict_range(self, stamp: float, anchor: Anchor) -> float | None:
        est = self._latest
        if est is None or not self._raw:
            return None
        motion = relative_motion(self._raw, est.stamp, stamp)
        pose = est.pose.mean @ motion
        antenna = pose.position + pose.rotation @ self._arm.offset
        bias = est.biases.get(anchor.id, (0.0, 0.0))[0]
        return float(np.linalg.norm(anchor.position - antenna)) + bias

    def update(self, now: float) -> UflsEstimate | None:
        """Advance the smoother to ``now``: new state, attach, slide, solve.

        Returns None while waiting for enough data to bootstrap (no
        configured initial pose and fewer than 4 distinct anchors seen).
        """
        if self._latest is not None and now <= self._latest.stamp + STAMP_TOL:
            raise ValueError(f"update stamp {now} does not advance the estimate")
        take = [z for z in self._range_queue if z.stamp <= now + STAMP_TOL]
        self._range_queue = [z for z in self._range_queue if z.stamp > now + STAMP_TOL]
        odom = self._odom_queue
        self._odom_queue = []
        # this span's inflation still sees the gaps that the prune drops
        gaps = self._gaps
        self._gaps = [g for g in gaps if g[1] > now - self._config.window - 1.0]

        flags = set()
        for sample in odom:
            if self._config.relative_odometry and not self.started:
                # increments cannot enter the accumulator until the first
                # update anchors its start stamp
                self._bootstrap_increments.append(sample)
            else:
                self._acc.push(sample)

        if not self.started:
            return self._bootstrap(now, take)

        span = self._acc.cut(now)
        span = self._inflate_gaps(span, gaps, flags)
        prev_key = self._pose_keys[-1]
        key = VariableKey.pose(self._pose_count, now)
        self._pose_count += 1
        value = self._graph.values[prev_key] @ span.delta
        self._graph.add_variable(key, value)
        self._graph.add_factor(OdometryFactor(prev_key, key, span))
        self._pose_keys.append(key)
        self._ranges_per_state[key] = 0

        self._attach_ranges(take)
        self._slide_window(now)
        return self._finish_update(now, flags)

    def _bootstrap(self, now: float, take) -> UflsEstimate | None:
        config = self._config
        self._bootstrap_ranges.extend(take)
        if not self._raw or self._raw[0].stamp > now + STAMP_TOL:
            return None
        prior = config.initial_prior()
        if prior is None:
            # the latest range per anchor queued so far
            latest = {z.anchor_id: z for z in self._bootstrap_ranges}
            prior = bootstrap_prior(latest.values(), self._anchors, self._raw, now)
            if prior is None:
                return None

        self._t0 = now
        self._startup_until = now + config.window
        self._acc.start(now)
        if config.relative_odometry:
            for sample in self._bootstrap_increments:
                if sample.stamp > now + STAMP_TOL:
                    self._acc.push(sample)
            self._bootstrap_increments = []
        key = VariableKey.pose(self._pose_count, now)
        self._pose_count += 1
        self._graph.add_variable(key, prior.mean)
        self._graph.add_factor(PriorFactor(key, prior.mean, prior.cov))
        self._pose_keys.append(key)
        self._ranges_per_state[key] = 0
        self._attach_ranges(self._bootstrap_ranges)
        self._bootstrap_ranges = []
        return self._finish_update(now, set())

    def _inflate_gaps(self, span: PreintegratedOdometry, gaps, flags) -> PreintegratedOdometry:
        gap_span = 0.0
        for g0, g1 in gaps:
            overlap = min(g1, span.end_stamp) - max(g0, span.start_stamp)
            if overlap > 0.0:
                gap_span += overlap
        if gap_span <= 0.0:
            return span
        flags.add("odometry_gap")
        config = self._config
        extra = np.diag(
            [(config.gap_sigma_trans * gap_span) ** 2] * 3
            + [(config.gap_sigma_rot * gap_span) ** 2] * 3
        )
        return PreintegratedOdometry(
            span.start_stamp, span.end_stamp, span.delta, span.cov + extra, False
        )

    def _epoch(self, stamp: float) -> int:
        if self._config.bias_walk_sigma <= 0.0:
            return 0
        return max(0, int(np.floor((stamp - self._t0) / self._config.window + 1e-9)))

    def _bias_key(self, anchor: Anchor, stamp: float) -> VariableKey:
        epoch = self._epoch(stamp)
        key = self._bias_epochs.get((anchor.id, epoch))
        if key is not None:
            return key
        current = self._current_bias.get(anchor.id)
        if current is None:
            key = VariableKey.bias(anchor.id, epoch)
            self._graph.add_variable(key, anchor.bias_prior_mean)
            self._graph.add_factor(
                PriorFactor(key, anchor.bias_prior_mean, anchor.bias_prior_sigma**2)
            )
        elif epoch > current.epoch:
            key = VariableKey.bias(anchor.id, epoch)
            steps = epoch - current.epoch
            self._graph.add_variable(key, self._graph.values[current])
            self._graph.add_factor(
                BiasWalkFactor(
                    current, key, self._config.bias_walk_sigma * np.sqrt(steps)
                )
            )
        else:
            # late measurement for an epoch already folded away
            return current
        self._bias_epochs[(anchor.id, epoch)] = key
        if current is None or epoch >= current.epoch:
            self._current_bias[anchor.id] = key
        return key

    def _attach_ranges(self, measurements) -> None:
        if not measurements:
            return
        config = self._config
        stamps = np.array([k.stamp for k in self._pose_keys])
        for z in measurements:
            key = self._pose_keys[int(np.argmin(np.abs(stamps - z.stamp)))]
            anchor = self._anchors[z.anchor_id]
            bias_key = self._bias_key(anchor, z.stamp) if config.bias_estimation else None
            self._graph.add_factor(
                range_factor(key, bias_key, z, anchor, self._arm, self._raw, config.huber_delta)
            )
            self._ranges_per_state[key] += 1

    def _slide_window(self, now: float) -> None:
        keep_from = now - self._config.window - STAMP_TOL
        drop = [k for k in self._pose_keys if k.stamp < keep_from]
        if self._config.bias_walk_sigma > 0.0 and self._config.bias_estimation:
            stale = self._epoch(now) - 3
            for (aid, epoch), key in list(self._bias_epochs.items()):
                if epoch <= stale and self._current_bias.get(aid) is not key:
                    drop.append(key)
                    del self._bias_epochs[(aid, epoch)]
        if not drop:
            return
        for k in self._pose_keys:
            if k.stamp < keep_from:
                self._retired.append((k.stamp, self._graph.values[k]))
        marginalize(self._graph, drop)
        dropped = set(drop)
        self._pose_keys = [k for k in self._pose_keys if k not in dropped]
        for k in dropped:
            self._ranges_per_state.pop(k, None)

    def _finish_update(self, now: float, flags: set) -> UflsEstimate:
        report = optimize(self._graph, self._config.solver)
        if not report.converged:
            flags.add("not_converged")
        if not np.isfinite(report.final_cost):
            flags.add("diverged")
        if sum(self._ranges_per_state.values()) == 0:
            flags.add("dead_reckoning")

        key = self._pose_keys[-1]
        anchor_ids = sorted(self._current_bias)
        covs = marginal_covariances(
            self._graph,
            [key] + [self._current_bias[aid] for aid in anchor_ids],
            report.linearization,
        )
        cov = covs[key]
        biases = {}
        for aid in anchor_ids:
            bkey = self._current_bias[aid]
            var = covs[bkey]
            biases[aid] = (float(self._graph.values[bkey]), float(np.sqrt(var[0, 0])))
        matched = sample_at(self._raw, now).pose.mean
        estimate = UflsEstimate(
            stamp=now,
            pose=PoseWithCovariance(self._graph.values[key], cov),
            biases=biases,
            matched_odometry=matched,
            rejected_count=self._rejected,
            flags=frozenset(flags),
        )
        self._latest = estimate
        return estimate

    def frame_offset(self, estimate: UflsEstimate | None = None) -> PoseWithCovariance:
        """World-from-odometry transform implied by one estimate.

        Composing this offset with later odometry poses yields high-rate
        world-frame poses. The covariance is the estimate's, transported
        through the frame change (the odometry pose is treated as exact).
        """
        est = estimate if estimate is not None else self._latest
        if est is None:
            raise ValueError("no estimate available yet")
        mean = est.pose.mean @ est.matched_odometry.inverse()
        cov = transport_covariance(est.pose.cov, est.matched_odometry)
        return PoseWithCovariance(mean, cov)
