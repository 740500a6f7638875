"""Offset smoother: batch and factor-graph equivalence, smoothing, correction."""

import numpy as np
import pytest

from raloc.factors import OffsetMeasurementFactor, WnoaFactor, wnoa_transition
from raloc.lie import Pose, PoseWithCovariance, exp
from raloc.preintegration import OdometrySample
from raloc.solver import FactorGraph, VariableKey, marginal_covariances
from raloc.wfls import VelocityPriorFactor, Wfls, WflsConfig


def feed(wfls, knots, update_stamps):
    """Ingest knots and fire updates in stamp order, knots first at ties."""
    outputs = []
    ki = 0
    for u in update_stamps:
        while ki < len(knots) and knots[ki][0] <= u + 1e-12:
            stamp, y, cov, rot = knots[ki]
            wfls.ingest_offset(stamp, y, cov, rot)
            ki += 1
        outputs.append(wfls.update(u))
    return outputs


def make_knots(stamps, positions, sigma):
    cov = np.eye(3) * sigma**2
    return [(float(t), np.asarray(p, dtype=float), cov, np.eye(3)) for t, p in zip(stamps, positions)]


def batch_gp_solve(knots, qw, velocity_prior_sigma):
    """Dense linear MAP over all [p, v] states, assembled from scratch."""
    n = len(knots)
    rows = []
    rhs = []

    def block_row(width_cols):
        return np.zeros((width_cols, 6 * n))

    w0 = np.eye(3) / velocity_prior_sigma
    row = block_row(3)
    row[:, 3:6] = w0
    rows.append(row)
    rhs.append(np.zeros(3))

    for i, (stamp, y, cov, _) in enumerate(knots):
        w = np.linalg.inv(np.linalg.cholesky(cov))
        row = block_row(3)
        row[:, 6 * i : 6 * i + 3] = w
        rows.append(row)
        rhs.append(w @ y)

    for i in range(n - 1):
        dt = knots[i + 1][0] - knots[i][0]
        phi = np.eye(6)
        phi[:3, 3:] = dt * np.eye(3)
        q = np.block(
            [
                [dt**3 / 3.0 * qw, dt**2 / 2.0 * qw],
                [dt**2 / 2.0 * qw, dt * qw],
            ]
        )
        w = np.linalg.inv(np.linalg.cholesky(q))
        row = block_row(6)
        row[:, 6 * (i + 1) : 6 * (i + 2)] = w
        row[:, 6 * i : 6 * i + 6] = -w @ phi
        rows.append(row)
        rhs.append(np.zeros(6))

    A = np.vstack(rows)
    b = np.concatenate(rhs)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return x.reshape(n, 6)


class TestConfig:
    def test_scalar_qw_becomes_diagonal(self):
        config = WflsConfig(qw=0.25)
        np.testing.assert_allclose(config.qw, 0.25 * np.eye(3))

    def test_bad_qw_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WflsConfig(qw=-1.0)
        with pytest.raises(ValueError, match="3x3"):
            WflsConfig(qw=np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            WflsConfig(qw=np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(ValueError, match="positive definite"):
            WflsConfig(qw=np.diag([1.0, -0.1, 1.0]))


class TestBasics:
    def test_first_offset_seeds_state(self):
        wfls = Wfls(WflsConfig())
        y = np.array([1.0, -2.0, 0.5])
        wfls.ingest_offset(0.0, y, np.eye(3) * 1e-6, np.eye(3))
        out = wfls.update(0.05)
        np.testing.assert_allclose(out.knot.position, y, atol=1e-6)
        np.testing.assert_allclose(out.knot.velocity, 0.0, atol=1e-6)
        assert out.knot.stamp == 0.0
        assert out.stamp == 0.05

    def test_stationary_offsets_zero_velocity(self):
        wfls = Wfls(WflsConfig())
        y = np.array([0.5, 0.5, 0.0])
        stamps = np.arange(11) * 0.2
        knots = make_knots(stamps, [y] * 11, 1e-4)
        outs = feed(wfls, knots, stamps[1:] + 0.05)
        final = outs[-1]
        np.testing.assert_allclose(final.knot.position, y, atol=1e-6)
        np.testing.assert_allclose(final.knot.velocity, 0.0, atol=1e-6)

    def test_constant_velocity_recovered(self):
        v = np.array([0.3, -0.1, 0.05])
        p0 = np.array([1.0, 2.0, 0.0])
        stamps = np.arange(16) * 0.2
        knots = make_knots(stamps, [p0 + v * t for t in stamps], 1e-4)
        wfls = Wfls(WflsConfig())
        outs = feed(wfls, knots, stamps[1:] + 0.05)
        np.testing.assert_allclose(outs[-1].knot.velocity, v, atol=1e-6)
        np.testing.assert_allclose(
            outs[-1].knot.position, p0 + v * stamps[-1], atol=1e-6
        )

    def test_stamp_regression_dropped_with_warning(self):
        wfls = Wfls(WflsConfig())
        assert wfls.ingest_offset(1.0, np.zeros(3), np.eye(3), np.eye(3))
        with pytest.warns(UserWarning, match="not ahead"):
            assert not wfls.ingest_offset(1.0, np.ones(3), np.eye(3), np.eye(3))

    def test_update_without_data_raises(self):
        wfls = Wfls(WflsConfig())
        with pytest.raises(ValueError, match="no offset measurements"):
            wfls.update(0.1)

    def test_update_must_advance(self):
        wfls = Wfls(WflsConfig())
        wfls.ingest_offset(0.0, np.zeros(3), np.eye(3), np.eye(3))
        wfls.update(0.1)
        with pytest.raises(ValueError, match="does not advance"):
            wfls.update(0.1)

    def test_future_offsets_stay_queued(self):
        wfls = Wfls(WflsConfig())
        wfls.ingest_offset(0.0, np.zeros(3), np.eye(3), np.eye(3))
        wfls.ingest_offset(0.5, np.ones(3), np.eye(3), np.eye(3))
        out = wfls.update(0.2)
        assert out.knot.stamp == 0.0
        out = wfls.update(0.6)
        assert out.knot.stamp == 0.5


def head_information_graph(knots, config):
    """Full-span factor graph of the model, valued at its dense solution."""
    graph = FactorGraph()
    keys = [VariableKey.offset(i, k[0]) for i, k in enumerate(knots)]
    for key, value in zip(keys, batch_gp_solve(knots, config.qw, config.velocity_prior_sigma)):
        graph.add_variable(key, value)
    graph.add_factor(VelocityPriorFactor(keys[0], config.velocity_prior_sigma))
    for key, (_, y, cov, _) in zip(keys, knots):
        graph.add_factor(OffsetMeasurementFactor(key, y, cov))
    for prev, key in zip(keys, keys[1:]):
        graph.add_factor(WnoaFactor(prev, key, key.stamp - prev.stamp, config.qw))
    return graph, keys[-1]


class TestBatchEquivalence:
    def test_window_spanning_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        stamps = np.arange(12) * 0.2
        truth = np.array([0.2, -0.1, 0.4]) + np.outer(stamps, [0.1, 0.3, -0.2])
        noisy = truth + rng.normal(0.0, 0.05, size=truth.shape)
        knots = make_knots(stamps, noisy, 0.05)
        config = WflsConfig(qw=0.1)
        wfls = Wfls(config)
        outs = feed(wfls, knots, stamps[1:] + 0.05)
        for out in outs:
            seen = [k for k in knots if k[0] <= out.stamp]
            want = batch_gp_solve(seen, config.qw, config.velocity_prior_sigma)[-1]
            assert out.knot.stamp == seen[-1][0]
            np.testing.assert_allclose(out.knot.position, want[:3], atol=1e-8)
            np.testing.assert_allclose(out.knot.velocity, want[3:], atol=1e-8)
            graph, head = head_information_graph(seen, config)
            cov = marginal_covariances(graph, [head])[head]
            assert np.abs(out.cov - cov).max() <= 1e-9 * np.abs(cov).max()


class TestSmoothing:
    def test_step_response_spreads_the_jump(self):
        stamps = np.arange(26) * 0.2
        positions = [np.zeros(3) if t < 2.5 else np.array([0.5, 0.0, 0.0]) for t in stamps]
        knots = make_knots(stamps, positions, 0.05)
        wfls = Wfls(WflsConfig(qw=0.05))
        outs = feed(wfls, knots, stamps[1:] + 0.05)
        xs = [o.sample.position[0] for o in outs]
        jumps = np.abs(np.diff(xs))
        assert jumps.max() < 0.5
        assert abs(xs[-1] - 0.5) < 0.05

    def test_noise_rejection_at_matched_qw(self):
        rng = np.random.default_rng(5)
        truth = np.array([1.0, 2.0, 0.5])
        stamps = np.arange(151) * 0.2
        noisy = truth + rng.normal(0.0, 0.05, size=(151, 3))
        knots = make_knots(stamps, noisy, 0.05)
        wfls = Wfls(WflsConfig(qw=0.001))
        outs = feed(wfls, knots, stamps[1:] + 0.05)
        skip = 25
        smoothed = np.array([o.knot.position for o in outs[skip:]])
        raw_std = np.std(noisy[skip:] - truth)
        smoothed_std = np.std(smoothed - truth)
        assert smoothed_std < raw_std / 2.0

    def test_second_differences_never_exceed_raw(self):
        rng = np.random.default_rng(9)
        stamps = np.arange(40) * 0.2
        noisy = rng.normal(0.0, 0.1, size=(40, 3))
        knots = make_knots(stamps, noisy, 0.1)
        wfls = Wfls(WflsConfig(qw=0.05))
        outs = feed(wfls, knots, stamps[1:] + 0.1)
        smoothed = np.array([o.knot.position for o in outs])

        def max_second_diff(arr):
            return np.abs(np.diff(arr, n=2, axis=0)).max()

        assert max_second_diff(smoothed) <= max_second_diff(noisy)

    def test_rate_decoupling(self):
        v = np.array([0.2, 0.0, -0.1])
        stamps = np.arange(21) * 0.2
        knots = make_knots(stamps, [v * t for t in stamps], 1e-3)
        for rate in (10.0, 2.0):
            wfls = Wfls(WflsConfig(update_rate=rate))
            ticks = np.arange(1, int(4.0 * rate) + 1) / rate
            outs = feed(wfls, knots, ticks)
            assert len(outs) == len(ticks)
            for out in outs[int(rate):]:
                np.testing.assert_allclose(
                    out.sample.position, v * out.stamp, atol=0.02
                )


class TestSlidingWindow:
    def test_sliding_matches_window_spanning_loosely(self):
        # the filtered head after each update against a dense solve spanning
        # every knot so far: no lag setting exists because none would matter
        rng = np.random.default_rng(3)
        stamps = np.arange(41) * 0.2
        truth = np.outer(np.sin(stamps * 0.5), [1.0, 0.0, 0.0])
        noisy = truth + rng.normal(0.0, 0.05, size=truth.shape)
        knots = make_knots(stamps, noisy, 0.05)
        config = WflsConfig(qw=0.05)
        outs = feed(Wfls(config), knots, stamps[1:] + 0.05)
        for out in outs:
            seen = [k for k in knots if k[0] <= out.stamp]
            want = batch_gp_solve(seen, config.qw, config.velocity_prior_sigma)[-1]
            assert np.abs(out.knot.position - want[:3]).max() < 1e-6


class TestCorrect:
    def test_unaligned_passthrough_before_first_update(self):
        wfls = Wfls(WflsConfig())
        pose = exp(np.array([0.3, -0.2, 0.1, 0.2, 0.1, -0.3]))
        out = wfls.correct(OdometrySample(0.4, PoseWithCovariance(pose, np.eye(6))))
        assert not out.aligned
        np.testing.assert_allclose(out.pose.position, pose.position)
        np.testing.assert_allclose(out.pose.rotation, pose.rotation)

    def test_identity_offset_returns_odometry(self):
        wfls = Wfls(WflsConfig())
        wfls.ingest_offset(0.0, np.zeros(3), np.eye(3) * 1e-8, np.eye(3))
        wfls.update(0.05)
        pose = exp(np.array([1.0, 2.0, 0.5, 0.1, -0.2, 0.3]))
        out = wfls.correct(OdometrySample(0.1, PoseWithCovariance(pose, np.eye(6))))
        assert out.aligned
        np.testing.assert_allclose(out.pose.position, pose.position, atol=1e-6)
        np.testing.assert_allclose(out.pose.rotation, pose.rotation, atol=1e-8)

    def test_pure_translation_offset(self):
        wfls = Wfls(WflsConfig())
        wfls.ingest_offset(
            0.0, np.array([1.0, 2.0, 3.0]), np.eye(3) * 1e-8, np.eye(3)
        )
        wfls.update(0.05)
        out = wfls.correct(
            OdometrySample(0.1, PoseWithCovariance(Pose.identity(), np.eye(6)))
        )
        np.testing.assert_allclose(out.pose.position, [1.0, 2.0, 3.0], atol=1e-6)
        np.testing.assert_allclose(out.offset_position, [1.0, 2.0, 3.0], atol=1e-6)

    def test_rotation_passthrough_applied(self):
        wfls = Wfls(WflsConfig())
        rot = exp(np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2])).rotation
        wfls.ingest_offset(0.0, np.zeros(3), np.eye(3) * 1e-8, rot)
        wfls.update(0.05)
        odom = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        out = wfls.correct(OdometrySample(0.1, PoseWithCovariance(odom, np.eye(6))))
        np.testing.assert_allclose(out.pose.position, [0.0, 1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(out.offset_rotation, rot)


class TestQuery:
    def test_query_beyond_newest_propagates(self):
        stamps = np.arange(6) * 0.2
        v = np.array([0.5, 0.0, 0.0])
        knots = make_knots(stamps, [v * t for t in stamps], 1e-4)
        wfls = Wfls(WflsConfig())
        feed(wfls, knots, stamps[1:] + 0.05)
        out = wfls.update(1.3)
        assert out.knot.stamp == stamps[-1]
        assert out.sample.stamp == 1.3
        np.testing.assert_allclose(out.sample.position, v * 1.3, atol=1e-3)
        ahead = wnoa_transition(1.3 - out.knot.stamp) @ np.concatenate(
            [out.knot.position, out.knot.velocity]
        )
        np.testing.assert_allclose(out.sample.position, ahead[:3], atol=1e-12)
        np.testing.assert_allclose(out.sample.velocity, ahead[3:], atol=1e-12)
