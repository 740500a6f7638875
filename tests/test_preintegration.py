"""Preintegration tests, with Monte-Carlo sampling as the covariance oracle."""

import numpy as np
import pytest

from raloc.lie import Pose, PoseWithCovariance, adjoint, exp, log
from raloc.preintegration import (
    OdometryAccumulator,
    OdometrySample,
    PreintegratedOdometry,
    accumulate,
    compose,
    default_covariance,
    interpolate,
    relative_motion,
    shadow_sample,
    to_incremental,
)


def random_psd(rng, trans_sigma, rot_sigma):
    scale = np.diag([trans_sigma] * 3 + [rot_sigma] * 3)
    a = rng.normal(size=(6, 6))
    return scale @ (a @ a.T / 6.0 + 0.5 * np.eye(6)) @ scale


def random_pose(rng, trans=1.0, rot=0.15):
    xi = np.concatenate([trans * rng.normal(size=3), rot * rng.normal(size=3)])
    return exp(xi)


def sample(stamp, pose, cov):
    return OdometrySample(stamp, PoseWithCovariance(pose, cov))


def frobenius_rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_incremental_degenerate_same_pose():
    rng = np.random.default_rng(0)
    pose = random_pose(rng)
    cov_next = random_psd(rng, 0.01, 0.02)
    out = to_incremental(
        sample(0.0, pose, np.zeros((6, 6))), sample(0.5, pose, cov_next)
    )
    assert np.allclose(out.delta.matrix(), np.eye(4), atol=1e-12)
    assert np.allclose(out.cov, cov_next)


def test_incremental_anchored_start():
    rng = np.random.default_rng(1)
    pose = random_pose(rng)
    cov_next = random_psd(rng, 0.01, 0.02)
    out = to_incremental(
        sample(0.0, Pose.identity(), np.zeros((6, 6))), sample(0.5, pose, cov_next)
    )
    assert np.allclose(out.delta.matrix(), pose.matrix())
    assert np.allclose(out.cov, cov_next)


def test_incremental_rejects_nonmonotonic_stamps():
    rng = np.random.default_rng(2)
    a = sample(1.0, random_pose(rng), np.eye(6) * 1e-4)
    b = sample(1.0, random_pose(rng), np.eye(6) * 1e-4)
    with pytest.raises(ValueError):
        to_incremental(a, b)


def test_incremental_covariance_matches_sampling():
    rng = np.random.default_rng(3)
    prev = sample(0.0, random_pose(rng), random_psd(rng, 0.02, 0.05))
    curr = sample(0.1, random_pose(rng), random_psd(rng, 0.02, 0.05))
    out = to_incremental(prev, curr)

    n = 10_000
    lp = np.linalg.cholesky(prev.pose.cov)
    lc = np.linalg.cholesky(curr.pose.cov)
    delta_inv = out.delta.inverse()
    draws = np.empty((n, 6))
    for k in range(n):
        tp = prev.pose.mean @ exp(lp @ rng.normal(size=6))
        tc = curr.pose.mean @ exp(lc @ rng.normal(size=6))
        draws[k] = log(delta_inv @ tp.inverse() @ tc)
    assert frobenius_rel(np.cov(draws.T), out.cov) < 0.10


def test_compose_right_identity():
    rng = np.random.default_rng(4)
    x = PreintegratedOdometry(0.0, 1.0, random_pose(rng), random_psd(rng, 0.02, 0.05))
    ident = PreintegratedOdometry(1.0, 1.5, Pose.identity(), np.zeros((6, 6)))
    out = compose(x, ident)
    assert np.allclose(out.delta.matrix(), x.delta.matrix())
    assert np.allclose(out.cov, x.cov)
    assert out.start_stamp == 0.0 and out.end_stamp == 1.5


def test_compose_equals_direct_when_middle_is_noiseless():
    # a middle sample that adds no noise must drop out of the composition
    rng = np.random.default_rng(5)
    s0 = sample(0.0, random_pose(rng), random_psd(rng, 0.02, 0.05))
    s1 = sample(0.1, random_pose(rng), np.zeros((6, 6)))
    s2 = sample(0.2, random_pose(rng), random_psd(rng, 0.02, 0.05))
    direct = to_incremental(s0, s2)
    folded = compose(to_incremental(s0, s1), to_incremental(s1, s2))
    assert np.allclose(folded.delta.matrix(), direct.delta.matrix(), atol=1e-12)
    assert np.allclose(folded.cov, direct.cov, atol=1e-12)


def test_compose_rejects_gap():
    rng = np.random.default_rng(6)
    a = PreintegratedOdometry(0.0, 1.0, random_pose(rng), np.eye(6) * 1e-4)
    b = PreintegratedOdometry(1.1, 2.0, random_pose(rng), np.eye(6) * 1e-4)
    with pytest.raises(ValueError):
        compose(a, b)


@pytest.mark.parametrize("steps", [10, 20])
def test_chain_covariance_matches_sampling(steps):
    rng = np.random.default_rng(7)
    deltas = [random_pose(rng, trans=0.3, rot=0.06) for _ in range(steps)]
    covs = [random_psd(rng, 0.01, 0.02) for _ in range(steps)]
    chols = [np.linalg.cholesky(c) for c in covs]

    acc = PreintegratedOdometry(0.0, 1.0, deltas[0], covs[0])
    for k in range(1, steps):
        acc = compose(acc, PreintegratedOdometry(float(k), float(k + 1), deltas[k], covs[k]))

    n = 10_000
    mean_inv = acc.delta.inverse()
    draws = np.empty((n, 6))
    for i in range(n):
        prod = Pose.identity()
        for k in range(steps):
            prod = prod @ deltas[k] @ exp(chols[k] @ rng.normal(size=6))
        draws[i] = log(mean_inv @ prod)
    assert frobenius_rel(np.cov(draws.T), acc.cov) < 0.10


def test_mean_associativity():
    rng = np.random.default_rng(8)
    incs = [
        PreintegratedOdometry(float(k), float(k + 1), random_pose(rng), random_psd(rng, 0.02, 0.05))
        for k in range(3)
    ]
    left = compose(compose(incs[0], incs[1]), incs[2])
    right = compose(incs[0], compose(incs[1], incs[2]))
    assert np.allclose(left.delta.matrix(), right.delta.matrix(), atol=1e-12)
    assert np.allclose(left.cov, right.cov, atol=1e-12)


def test_composition_never_removes_information():
    # the adjoint transport preserves the determinant (its own determinant
    # is one), so composing with any PSD increment cannot shrink det(cov);
    # trace is additionally monotone for increments with fresh diagonal noise
    rng = np.random.default_rng(9)
    acc = PreintegratedOdometry(
        0.0, 1.0, random_pose(rng), default_covariance([0.01] * 3 + [0.02] * 3)
    )
    for k in range(1, 8):
        det_before = np.linalg.det(acc.cov)
        trace_before = np.trace(acc.cov)
        inc = PreintegratedOdometry(
            float(k),
            float(k + 1),
            random_pose(rng, trans=0.3, rot=0.1),
            default_covariance([0.01] * 3 + [0.02] * 3),
        )
        acc = compose(acc, inc)
        assert np.linalg.det(acc.cov) >= det_before * (1.0 - 1e-9)
        assert np.trace(acc.cov) >= np.trace(inc.cov) - 1e-15
        assert np.trace(acc.cov) >= trace_before - 1e-15


def stream_along(rng, stamps, step_sigma=0.03, cov_scale=(0.005, 0.01)):
    """Absolute stream built by composing small random increments."""
    out = []
    pose = Pose.identity()
    for t in stamps:
        pose = pose @ exp(step_sigma * rng.normal(size=6))
        out.append(sample(float(t), pose, random_psd(rng, *cov_scale)))
    return out


def test_accumulate_two_samples_equals_incremental():
    rng = np.random.default_rng(10)
    stream = stream_along(rng, [0.0, 0.1])
    (out,) = accumulate(stream, [0.0, 0.1])
    direct = to_incremental(stream[0], stream[1])
    assert np.allclose(out.delta.matrix(), direct.delta.matrix(), atol=1e-12)
    assert np.allclose(out.cov, direct.cov, atol=1e-12)


def test_accumulate_folds_full_rate_stream():
    # 200 Hz odometry cut at ~17 Hz: every interval folds a dozen samples,
    # and the folded mean telescopes to the interpolated endpoint motion
    rng = np.random.default_rng(11)
    stamps = np.arange(0.0, 1.0 + 1e-9, 1.0 / 200.0)
    stream = stream_along(rng, stamps)
    cuts = list(np.arange(0.0, 1.0, 1.0 / 17.0))
    outs = accumulate(stream, cuts)
    assert len(outs) == len(cuts) - 1
    for out, (a, b) in zip(outs, zip(cuts, cuts[1:])):
        assert out.start_stamp == pytest.approx(a)
        assert out.end_stamp == pytest.approx(b)
        lo = [s for s in stream if s.stamp <= a + 1e-9][-1]
        lo_next = [s for s in stream if s.stamp > lo.stamp][0]
        begin = interpolate(lo, lo_next, a)
        hi_prev = [s for s in stream if s.stamp < b - 1e-9][-1]
        hi = [s for s in stream if s.stamp >= b - 1e-9][0]
        end = interpolate(hi_prev, hi, b)
        expected = begin.pose.mean.inverse() @ end.pose.mean
        assert np.allclose(out.delta.matrix(), expected.matrix(), atol=1e-9)
        eig = np.linalg.eigvalsh(out.cov)
        assert eig.min() > 0.0


def test_accumulate_split_matches_single_pass():
    rng = np.random.default_rng(12)
    stamps = np.arange(0.0, 0.5 + 1e-9, 0.005)
    stream = stream_along(rng, stamps)
    (whole,) = accumulate(stream, [0.0, 0.5])
    # splitting at a sample stamp reproduces the one-pass fold exactly
    first, second = accumulate(stream, [0.0, 0.215, 0.5])
    rejoined = compose(first, second)
    assert np.allclose(rejoined.delta.matrix(), whole.delta.matrix(), atol=1e-10)
    assert np.allclose(rejoined.cov, whole.cov, atol=1e-10)
    # a cut between samples interpolates a sample there whose synthesized
    # noise enters both windows, so only the mean telescopes exactly
    first, second = accumulate(stream, [0.0, 0.2125, 0.5])
    rejoined = compose(first, second)
    assert np.allclose(rejoined.delta.matrix(), whole.delta.matrix(), atol=1e-10)
    extra = rejoined.cov - whole.cov
    assert np.all(np.linalg.eigvalsh(extra) > -1e-12)


def test_accumulate_empty_interval_flagged():
    rng = np.random.default_rng(13)
    stream = stream_along(rng, [0.0, 0.1, 0.2])
    a, b = accumulate(stream, [0.0, 0.1, 0.1])
    assert not a.empty_interval
    assert b.empty_interval
    assert np.allclose(b.delta.matrix(), np.eye(4))
    assert np.allclose(b.cov, 0.0)


def test_accumulate_rejects_cuts_outside_stream():
    rng = np.random.default_rng(14)
    stream = stream_along(rng, [0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        accumulate(stream, [0.0, 0.3])
    with pytest.raises(ValueError):
        accumulate(stream, [0.1, 0.0])


def test_accumulator_rejects_nonmonotonic_push():
    acc = OdometryAccumulator()
    acc.push(sample(0.0, Pose.identity(), np.eye(6)))
    with pytest.raises(ValueError):
        acc.push(sample(0.0, Pose.identity(), np.eye(6)))


def test_relative_stream_matches_absolute():
    rng = np.random.default_rng(15)
    stamps = np.arange(0.0, 0.3 + 1e-9, 0.01)
    stream = stream_along(rng, stamps)
    cuts = [0.0, 0.1, 0.2, 0.3]
    absolute = accumulate(stream, cuts)

    rel = []
    for prev, curr in zip(stream, stream[1:]):
        inc = to_incremental(prev, curr)
        rel.append(sample(curr.stamp, inc.delta, inc.cov))
    relative = accumulate(rel, cuts, relative=True)

    for a, r in zip(absolute, relative):
        assert np.allclose(a.delta.matrix(), r.delta.matrix(), atol=1e-10)
        assert np.allclose(a.cov, r.cov, atol=1e-10)


def test_relative_split_recomposes_exactly():
    rng = np.random.default_rng(16)
    inc_pose = random_pose(rng)
    rel = [sample(1.0, inc_pose, random_psd(rng, 0.02, 0.05))]
    first, second = accumulate(rel, [0.0, 0.4, 1.0], relative=True)
    rejoined = compose(first, second)
    assert np.allclose(rejoined.delta.matrix(), inc_pose.matrix(), atol=1e-12)
    assert np.allclose(rejoined.cov, rel[0].pose.cov, atol=1e-12)


def split_increment(inc, stamp):
    """Head and tail of an increment split at an interior stamp.

    Both halves share the increment's screw axis, and the covariance splits
    in proportion to duration, the head's share transported through the
    tail, so that composing the halves gives back the increment.
    """
    u = (stamp - inc.start_stamp) / (inc.end_stamp - inc.start_stamp)
    xi = log(inc.delta)
    tail = exp((1.0 - u) * xi)
    ad = adjoint(tail)
    head_cov = ad @ (u * inc.cov) @ ad.T
    return (
        PreintegratedOdometry(inc.start_stamp, stamp, exp(u * xi), head_cov),
        PreintegratedOdometry(stamp, inc.end_stamp, tail, (1.0 - u) * inc.cov),
    )


def chain_fold(stream, a, b):
    """Reference: the per-step ``to_incremental``/``compose`` fold over [a, b].

    ``stream`` holds absolute samples, or ``PreintegratedOdometry``
    increments, of which the ones straddling a or b are split there.
    """
    if isinstance(stream[0], PreintegratedOdometry):
        out = PreintegratedOdometry(a, a, Pose.identity(), np.zeros((6, 6)))
        for piece in stream:
            if piece.end_stamp <= a or piece.start_stamp >= b:
                continue
            if piece.start_stamp < a:
                piece = split_increment(piece, a)[1]
            if piece.end_stamp > b:
                piece = split_increment(piece, b)[0]
            out = compose(out, piece)
        return out

    def at(t):
        hi = next(k for k, s in enumerate(stream) if s.stamp >= t)
        return interpolate(stream[max(hi - 1, 0)], stream[hi], t)

    chain = [at(a)] + [s for s in stream if a < s.stamp < b] + [at(b)]
    out = to_incremental(chain[0], chain[1])
    for prev, curr in zip(chain[1:], chain[2:]):
        out = compose(out, to_incremental(prev, curr))
    return out


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_accumulate_equals_chain_fold(relative):
    # 200 Hz stream; cuts on the sample grid (0.25, 0.5, 1.0) and off it,
    # including two cuts inside one sample interval (0.6012, 0.6037)
    rng = np.random.default_rng(18)
    stamps = np.arange(0.0, 1.5 + 1e-9, 1.0 / 200.0)
    stream = stream_along(rng, stamps, step_sigma=0.05)
    reference = stream
    if relative:
        reference = [to_incremental(prev, curr) for prev, curr in zip(stream, stream[1:])]
        stream = [sample(inc.end_stamp, inc.delta, inc.cov) for inc in reference]
    cuts = [0.0, 0.0731, 0.25, 0.5, 0.6012, 0.6037, 1.0, 1.2345, 1.5]
    outs = accumulate(stream, cuts, relative=relative)
    for out, a, b in zip(outs, cuts, cuts[1:]):
        ref = chain_fold(reference, a, b)
        assert (out.start_stamp, out.end_stamp) == pytest.approx((a, b))
        assert frobenius_rel(out.delta.matrix(), ref.delta.matrix()) < 1e-12
        assert frobenius_rel(out.cov, ref.cov) < 1e-12


def test_interpolate_endpoints_and_geodesic():
    rng = np.random.default_rng(17)
    a = sample(0.0, Pose.identity(), np.eye(6) * 2.0)
    b_pose = exp(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.6]))
    b = sample(1.0, b_pose, np.eye(6) * 4.0)
    assert interpolate(a, b, 0.0) is a
    assert interpolate(a, b, 1.0) is b
    mid = interpolate(a, b, 0.5)
    assert np.allclose(
        mid.pose.mean.matrix(), exp(0.5 * np.array([1, 0, 0, 0, 0, 0.6])).matrix()
    )
    assert np.allclose(mid.pose.cov, np.eye(6) * 3.0)
    with pytest.raises(ValueError):
        interpolate(a, b, 1.5)


def test_relative_motion_clamps_to_the_stream_span():
    rng = np.random.default_rng(4)
    stream = [sample(float(t), random_pose(rng), np.zeros((6, 6))) for t in range(4)]
    inside = relative_motion(stream, 1.0, 3.0)
    beyond = relative_motion(stream, 1.0, 7.5)
    np.testing.assert_array_equal(beyond.rotation, inside.rotation)
    np.testing.assert_array_equal(beyond.position, inside.position)
    before = relative_motion(stream, -2.0, 1.0)
    expected = stream[0].pose.mean.inverse() @ stream[1].pose.mean
    np.testing.assert_array_equal(before.position, expected.position)


def test_shadow_chain_composes_relative_increments():
    rng = np.random.default_rng(5)
    increments = [sample(0.1 * k, random_pose(rng), np.eye(6)) for k in range(1, 5)]
    chain = []
    for inc in increments:
        chain.append(shadow_sample(chain[-1] if chain else None, inc, relative=True))
    expected = Pose.identity()
    for inc, entry in zip(increments, chain):
        expected = expected @ inc.pose.mean
        assert entry.stamp == inc.stamp
        np.testing.assert_allclose(entry.pose.mean.position, expected.position, atol=1e-12)
        assert not entry.pose.cov.any()
    assert shadow_sample(None, increments[0], relative=False) is increments[0]


def test_default_covariance():
    sig = np.array([0.01, 0.01, 0.02, 0.001, 0.001, 0.002])
    cov = default_covariance(sig)
    assert np.allclose(cov, np.diag(sig**2))
    with pytest.raises(ValueError):
        default_covariance(np.ones(3))
