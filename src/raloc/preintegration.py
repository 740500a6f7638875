"""Fold bursts of odometry samples into single relative-pose measurements.

High-rate odometry (hundreds of Hz) arriving between two estimator states is
compressed into one relative pose with a 6x6 covariance, so the graph gets a
single binary factor per state pair instead of a node per sample and no
sample is dropped.

Uncertainty bookkeeping follows the right-perturbation convention from
:mod:`raloc.lie`; covariances are propagated to second order, which holds to
within a few percent for per-step rotations up to ~0.2 rad.

A cut over [a, b] has a closed form. With ``begin`` and ``end`` the stream's
absolute poses at a and b (interpolated between samples), the mean is
``begin^-1 end`` and the covariance is sum_k w_k Ad_k C_k Ad_k^T, with
Ad_k = Ad(end^-1 T_k). An absolute stream sums over T_k in [begin, samples
inside (a, b), end] with w = 1, 2, ..., 2, 1: each inner sample enters two
successive differences of the per-step ``to_incremental``/``compose`` fold.
A relative stream sums over the pose T_k at the end of each increment k,
with that increment's covariance C_k and w_k the share of its duration
inside [a, b]; this splits an increment straddling a or b in proportion to
duration along its own screw axis.

Caveat: composing per-sample covariances of an absolute odometry stream
treats successive samples as independent. Real odometry drift is strongly
correlated between neighboring samples, so the composed covariance
overestimates the increment uncertainty. Streams that already carry
per-increment covariances avoid this; see the ``relative`` input mode.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .lie import Pose, PoseWithCovariance, adjoint, adjoint_rows, exp, log, symmetrize

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


_stamp = attrgetter("stamp")


def sample_at(samples: list[OdometrySample], stamp: float) -> OdometrySample:
    """Interpolated stream value at a stamp inside the sample span."""
    if not samples:
        raise ValueError("empty odometry stream")
    hi = bisect.bisect_left(samples, stamp, key=_stamp)
    if hi == 0:
        return interpolate(samples[0], samples[0], stamp)
    if hi == len(samples):
        return interpolate(samples[-1], samples[-1], stamp)
    return interpolate(samples[hi - 1], samples[hi], stamp)


def shadow_sample(
    prev: OdometrySample | None, sample: OdometrySample, relative: bool
) -> OdometrySample:
    """Next entry of an absolute-pose copy of the stream.

    An absolute sample is its own entry. A relative one is composed onto
    ``prev`` (identity for the first), with a zero covariance: the copy serves
    ``relative_motion`` and the accumulator's store, which keeps the
    increment's covariance beside it.
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
      - absolute (default): samples are poses in the odometry frame, each
        with its own covariance.
      - relative: each sample is already an increment covering the time
        since the previous sample (or since the start stamp for the first),
        with the increment's covariance.

    Both keep one store of absolute poses: ``shadow_sample`` composes a
    relative increment onto the previous pose, from the identity at the
    start stamp. ``cut`` evaluates the closed form of the module docstring.
    """

    def __init__(self, relative: bool = False):
        self.relative = relative
        self._start: float | None = None
        # absolute poses in stamp order, from the last one at or before the
        # current start stamp on; beside each, the sample's covariance
        # (absolute mode) or its increment's (relative mode)
        self._samples: list[OdometrySample] = []
        self._covs: list[np.ndarray] = []
        # the stream at the start stamp, once a cut has interpolated it there
        self._begin: OdometrySample | None = None

    def start(self, stamp: float) -> None:
        if self._start is not None:
            raise ValueError("accumulator already started")
        if self.relative:
            if self._samples:
                raise ValueError("start() must precede pushes in relative mode")
            origin = PoseWithCovariance(Pose.identity(), np.zeros((6, 6)))
            self._samples.append(OdometrySample(stamp, origin))
            self._covs.append(origin.cov)
        elif self._samples and stamp < self._samples[0].stamp - STAMP_TOL:
            raise ValueError("start stamp precedes first odometry sample")
        self._start = stamp

    def push(self, sample: OdometrySample) -> None:
        prev = self._samples[-1] if self._samples else None
        if prev is not None and sample.stamp <= prev.stamp:
            raise ValueError(
                f"odometry stamps must increase: {prev.stamp} -> {sample.stamp}"
            )
        if self.relative and self._start is None:
            raise ValueError("relative mode needs start() before pushes")
        self._samples.append(shadow_sample(prev, sample, self.relative))
        self._covs.append(sample.pose.cov)

    def cut(self, stamp: float) -> PreintegratedOdometry:
        if self._start is None:
            raise ValueError("cut() before start()")
        if stamp < self._start - STAMP_TOL:
            raise ValueError(f"cut stamp {stamp} precedes window start {self._start}")
        if abs(stamp - self._start) <= STAMP_TOL:
            return _identity_span(self._start)
        samples = self._samples
        newest = samples[-1].stamp if samples else None
        if newest is None or stamp > newest + STAMP_TOL:
            raise ValueError(f"cut stamp {stamp} beyond newest odometry {newest}")
        if samples[0].stamp > self._start + STAMP_TOL:
            raise ValueError("no odometry sample at or before the window start")
        begin = self._begin if self._begin is not None else sample_at(samples, self._start)
        end = sample_at(samples, stamp)
        # stored entries strictly after begin, and the first at or after end
        lo = bisect.bisect_right(samples, begin.stamp, key=_stamp)
        hi = bisect.bisect_left(samples, end.stamp, key=_stamp)
        if self.relative:
            # entry k closes the increment over [t_(k-1), t_k]; weigh it by
            # the share of that increment inside [begin, end]
            terms = samples[lo : hi + 1]
            covs = self._covs[lo : hi + 1]
            t = np.array([s.stamp for s in samples[lo - 1 : hi + 1]])
            weights = (
                np.minimum(t[1:], end.stamp) - np.maximum(t[:-1], begin.stamp)
            ) / np.diff(t)
        else:
            terms = [begin, *samples[lo:hi], end]
            covs = [begin.pose.cov, *self._covs[lo:hi], end.pose.cov]
            weights = np.full(len(terms), 2.0)
            weights[[0, -1]] = 1.0
        # Ad(end^-1 T_k) for every term pose T_k
        Re_t = end.pose.mean.rotation.T
        R = np.array([s.pose.mean.rotation for s in terms])
        p = np.array([s.pose.mean.position for s in terms])
        ad = adjoint_rows(Re_t @ R, (p - end.pose.mean.position) @ Re_t.T)
        cov = np.einsum("nij,nlj->il", (weights[:, None, None] * ad) @ np.array(covs), ad)
        out = PreintegratedOdometry(
            begin.stamp,
            end.stamp,
            begin.pose.mean.inverse() @ end.pose.mean,
            symmetrize(cov),
        )
        keep = bisect.bisect_right(samples, end.stamp, key=_stamp) - 1
        del samples[:keep], self._covs[:keep]
        self._start, self._begin = stamp, end
        return out


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
