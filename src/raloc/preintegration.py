"""Fold bursts of odometry samples into single relative-pose measurements.

High-rate odometry (hundreds of Hz) arriving between two estimator states is
compressed into one relative pose with a 6x6 covariance, so the graph gets a
single binary factor per state pair instead of a node per sample and no
sample is dropped.

Uncertainty bookkeeping follows the right-perturbation convention from
:mod:`raloc.lie`; covariances are propagated to second order, which holds to
within a few percent for per-step rotations up to ~0.2 rad.

Caveat: composing per-sample covariances of an absolute odometry stream
treats successive samples as independent. Real odometry drift is strongly
correlated between neighboring samples, so the composed covariance
overestimates the increment uncertainty. Streams that already carry
per-increment covariances avoid this; see the ``relative`` input mode.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .lie import Pose, PoseWithCovariance, adjoint, exp, log, symmetrize

# Tolerance on timestamp continuity checks and cut/sample coincidence.
STAMP_TOL = 1e-6


@dataclass(frozen=True)
class OdometrySample:
    """One odometry output: robot pose in the odometry frame, plus stamp."""

    stamp: float
    pose: PoseWithCovariance


@dataclass(frozen=True)
class PreintegratedOdometry:
    """Relative motion over [start_stamp, end_stamp] with 6x6 covariance.

    ``delta`` maps the body frame at end_stamp into the body frame at
    start_stamp; ``cov`` is the right-perturbation covariance of ``delta``.
    ``empty_interval`` flags a zero-duration cut that produced an identity
    measurement with no added noise.
    """

    start_stamp: float
    end_stamp: float
    delta: Pose
    cov: np.ndarray
    empty_interval: bool = False


def default_covariance(sigmas: np.ndarray) -> np.ndarray:
    """Diagonal 6x6 covariance from per-axis sigmas [rho, phi].

    Used to synthesize a covariance for odometry streams that do not carry
    one per sample (config key ``odometry.default_sigma``).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.shape != (6,):
        raise ValueError("odometry.default_sigma needs 6 per-axis sigmas [rho, phi]")
    return np.diag(sigmas * sigmas)


def to_incremental(prev: OdometrySample, curr: OdometrySample) -> PreintegratedOdometry:
    """Relative motion between two absolute samples with transported covariance.

    The previous sample's uncertainty is expressed in the frame of the new
    increment via the adjoint of the inverse increment, then the current
    sample's uncertainty adds on top.
    """
    if curr.stamp <= prev.stamp:
        raise ValueError(
            f"odometry stamps must increase: {prev.stamp} -> {curr.stamp}"
        )
    delta = prev.pose.mean.inverse() @ curr.pose.mean
    ad_inv = adjoint(delta.inverse())
    cov = ad_inv @ prev.pose.cov @ ad_inv.T + curr.pose.cov
    return PreintegratedOdometry(prev.stamp, curr.stamp, delta, symmetrize(cov))


def compose(acc: PreintegratedOdometry, inc: PreintegratedOdometry) -> PreintegratedOdometry:
    """Chain two adjacent preintegrated measurements into one."""
    if abs(acc.end_stamp - inc.start_stamp) > STAMP_TOL:
        raise ValueError(
            f"discontinuous spans: [{acc.start_stamp}, {acc.end_stamp}] then "
            f"[{inc.start_stamp}, {inc.end_stamp}]"
        )
    delta = acc.delta @ inc.delta
    ad_inv = adjoint(inc.delta.inverse())
    cov = ad_inv @ acc.cov @ ad_inv.T + inc.cov
    return PreintegratedOdometry(
        acc.start_stamp,
        inc.end_stamp,
        delta,
        symmetrize(cov),
        acc.empty_interval and inc.empty_interval,
    )


def interpolate(a: OdometrySample, b: OdometrySample, stamp: float) -> OdometrySample:
    """Sample the stream at an intermediate stamp.

    The mean follows the geodesic between the bracketing poses; the
    covariance is blended linearly. Endpoint stamps return the endpoint.
    """
    if not (a.stamp - STAMP_TOL <= stamp <= b.stamp + STAMP_TOL):
        raise ValueError(f"stamp {stamp} outside bracket [{a.stamp}, {b.stamp}]")
    if abs(stamp - a.stamp) <= STAMP_TOL:
        return a
    if abs(stamp - b.stamp) <= STAMP_TOL:
        return b
    u = (stamp - a.stamp) / (b.stamp - a.stamp)
    step = log(a.pose.mean.inverse() @ b.pose.mean)
    mean = a.pose.mean @ exp(u * step)
    cov = (1.0 - u) * a.pose.cov + u * b.pose.cov
    return OdometrySample(stamp, PoseWithCovariance(mean, cov))


def _identity_span(stamp: float) -> PreintegratedOdometry:
    return PreintegratedOdometry(stamp, stamp, Pose.identity(), np.zeros((6, 6)), True)


def sample_at(samples: list[OdometrySample], stamp: float) -> OdometrySample:
    """Interpolated stream value at a stamp inside the sample span."""
    if not samples:
        raise ValueError("empty odometry stream")
    hi = bisect.bisect_left(samples, stamp, key=lambda s: s.stamp)
    if hi == 0:
        return interpolate(samples[0], samples[0], stamp)
    if hi == len(samples):
        return interpolate(samples[-1], samples[-1], stamp)
    return interpolate(samples[hi - 1], samples[hi], stamp)


def shadow_sample(
    prev: OdometrySample | None, sample: OdometrySample, relative: bool
) -> OdometrySample:
    """Next entry of an absolute-pose copy of the stream, for ``relative_motion``.

    An absolute sample is its own entry. A relative one is composed onto
    ``prev`` (identity for the first), with a zero covariance since only the
    mean serves differential queries.
    """
    if not relative:
        return sample
    base = prev.pose.mean if prev is not None else Pose.identity()
    return OdometrySample(
        sample.stamp, PoseWithCovariance(base @ sample.pose.mean, np.zeros((6, 6)))
    )


def relative_motion(samples: list[OdometrySample], t_a: float, t_b: float) -> Pose:
    """Body motion from time t_a to t_b according to the odometry stream.

    Differential use only: over short horizons the stream's drift is common
    to both endpoints and cancels. Stamps outside the stream's span are
    clamped to its ends, so no motion is assumed beyond the newest sample.
    """
    if not samples:
        raise ValueError("empty odometry stream")
    lo, hi = samples[0].stamp, samples[-1].stamp
    a = sample_at(samples, min(max(t_a, lo), hi))
    b = sample_at(samples, min(max(t_b, lo), hi))
    return a.pose.mean.inverse() @ b.pose.mean


class OdometryAccumulator:
    """Streaming folder of odometry samples into per-interval measurements.

    Single-owner stateful object: push samples as they arrive, then
    ``cut(stamp)`` to emit the preintegrated measurement covering the span
    since the previous cut. ``start(stamp)`` sets the first cut boundary.

    Two input modes:
      - absolute (default): samples are poses in the odometry frame; pairs
        are differenced and their covariances transported.
      - relative: each sample is already an increment covering the time
        since the previous sample (or since the start stamp for the first),
        and its covariance is used as-is.
    """

    def __init__(self, relative: bool = False):
        self.relative = relative
        self._start: float | None = None
        # absolute mode: samples not yet consumed, first one sits at the
        # current start stamp (interpolated there by the previous cut)
        self._samples: list[OdometrySample] = []
        # relative mode: pending increments since the current start
        self._pending: list[PreintegratedOdometry] = []
        self._last_stamp: float | None = None

    @property
    def latest_stamp(self) -> float | None:
        return self._last_stamp

    def start(self, stamp: float) -> None:
        if self._start is not None:
            raise ValueError("accumulator already started")
        if self.relative:
            if self._last_stamp is not None:
                raise ValueError("start() must precede pushes in relative mode")
            self._last_stamp = stamp
        else:
            if self._samples and stamp < self._samples[0].stamp - STAMP_TOL:
                raise ValueError("start stamp precedes first odometry sample")
        self._start = stamp

    def push(self, sample: OdometrySample) -> None:
        if self._last_stamp is not None and sample.stamp <= self._last_stamp:
            raise ValueError(
                f"odometry stamps must increase: {self._last_stamp} -> {sample.stamp}"
            )
        if self.relative:
            if self._start is None:
                raise ValueError("relative mode needs start() before pushes")
            self._pending.append(
                PreintegratedOdometry(
                    self._last_stamp, sample.stamp, sample.pose.mean, sample.pose.cov
                )
            )
        else:
            self._samples.append(sample)
        self._last_stamp = sample.stamp

    def cut(self, stamp: float) -> PreintegratedOdometry:
        if self._start is None:
            raise ValueError("cut() before start()")
        if stamp < self._start - STAMP_TOL:
            raise ValueError(f"cut stamp {stamp} precedes window start {self._start}")
        if abs(stamp - self._start) <= STAMP_TOL:
            return _identity_span(self._start)
        if self._last_stamp is None or stamp > self._last_stamp + STAMP_TOL:
            raise ValueError(
                f"cut stamp {stamp} beyond newest odometry {self._last_stamp}"
            )
        if self.relative:
            out = self._cut_relative(stamp)
        else:
            out = self._cut_absolute(stamp)
        self._start = stamp
        return out

    def _cut_absolute(self, stamp: float) -> PreintegratedOdometry:
        samples = self._samples
        if samples[0].stamp > self._start + STAMP_TOL:
            raise ValueError("no odometry sample at or before the window start")
        # last sample at or before the window start
        lo = 0
        while lo + 1 < len(samples) and samples[lo + 1].stamp <= self._start + STAMP_TOL:
            lo += 1
        begin = interpolate(samples[lo], samples[min(lo + 1, len(samples) - 1)], self._start)
        # first sample at or after the cut
        hi = 0
        while samples[hi].stamp < stamp - STAMP_TOL:
            hi += 1
        end = interpolate(samples[max(hi - 1, 0)], samples[hi], stamp)
        chain = [begin]
        chain += [s for s in samples if self._start + STAMP_TOL < s.stamp < stamp - STAMP_TOL]
        chain.append(end)
        out = to_incremental(chain[0], chain[1])
        for prev, curr in zip(chain[1:], chain[2:]):
            out = compose(out, to_incremental(prev, curr))
        # keep the interpolated cut sample as the next window's start, plus
        # everything after it
        self._samples = [end] + [s for s in samples if s.stamp > stamp + STAMP_TOL]
        return out

    def _cut_relative(self, stamp: float) -> PreintegratedOdometry:
        done: list[PreintegratedOdometry] = []
        rest: list[PreintegratedOdometry] = []
        for inc in self._pending:
            if inc.end_stamp <= stamp + STAMP_TOL:
                done.append(inc)
            elif inc.start_stamp >= stamp - STAMP_TOL:
                rest.append(inc)
            else:
                head, tail = _split_increment(inc, stamp)
                done.append(head)
                rest.append(tail)
        out = _identity_span(self._start)
        for inc in done:
            out = compose(out, inc)
        self._pending = rest
        return out


def _split_increment(
    inc: PreintegratedOdometry, stamp: float
) -> tuple[PreintegratedOdometry, PreintegratedOdometry]:
    """Split one increment at an interior stamp.

    Both halves share the increment's screw axis, so the means compose back
    to the original exactly. The covariance splits in proportion to
    duration, with the head's share pre-transported so that composing the
    halves reproduces the original covariance as well.
    """
    u = (stamp - inc.start_stamp) / (inc.end_stamp - inc.start_stamp)
    xi = log(inc.delta)
    tail_delta = exp((1.0 - u) * xi)
    ad_tail = adjoint(tail_delta)
    head_cov = ad_tail @ (u * inc.cov) @ ad_tail.T
    head = PreintegratedOdometry(inc.start_stamp, stamp, exp(u * xi), symmetrize(head_cov))
    tail = PreintegratedOdometry(stamp, inc.end_stamp, tail_delta, (1.0 - u) * inc.cov)
    return head, tail


def accumulate(
    stream: list[OdometrySample],
    cut_stamps: list[float],
    relative: bool = False,
) -> list[PreintegratedOdometry]:
    """One preintegrated measurement per consecutive pair of cut stamps.

    Every sample between two cuts is folded in; cut stamps that do not
    coincide with sample stamps use on-manifold interpolation (absolute
    mode) or proportional splitting (relative mode). Cut stamps must lie
    within the span of the stream and be non-decreasing; a repeated cut
    stamp yields an identity measurement flagged ``empty_interval``.
    """
    if len(cut_stamps) < 2:
        raise ValueError("need at least two cut stamps")
    for a, b in zip(cut_stamps, cut_stamps[1:]):
        if b < a:
            raise ValueError("cut stamps must be non-decreasing")
    acc = OdometryAccumulator(relative=relative)
    acc.start(cut_stamps[0])
    for sample in stream:
        if relative and sample.stamp <= cut_stamps[0] + STAMP_TOL:
            continue
        acc.push(sample)
    return [acc.cut(stamp) for stamp in cut_stamps[1:]]
