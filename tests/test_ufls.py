"""Fixed-lag range smoother: accuracy, gating, sliding window, bootstrap."""

import numpy as np
import pytest
from conftest import replay_ufls

from raloc import sim
from raloc.factors import RangeMeasurement
from raloc.lie import Pose, PoseWithCovariance, adjoint, exp, log
from raloc.preintegration import OdometrySample
from raloc.solver import SolverOptions
from raloc.ufls import Ufls, UflsConfig, multilaterate, offset_position_measurement

TIGHT = SolverOptions(max_iters=100, rel_cost_tol=0.0, abs_step_tol=1e-13)


def quiet_scenario(**overrides):
    base = dict(
        duration=10.0,
        range_sigma=0.0,
        odom_noise_trans=0.0,
        odom_noise_rot=0.0,
        odom_drift_trans=np.zeros(3),
        odom_drift_yaw=0.0,
    )
    base.update(overrides)
    return sim.preset_scenario("small", seed=5, **base)


def truth_interp(ds):
    t = np.asarray([s for s, _ in ds.truth])
    p = np.asarray([pose.position for _, pose in ds.truth])

    def at(stamp):
        return np.array([np.interp(stamp, t, p[:, k]) for k in range(3)])

    return at


def position_rmse(estimates, ds):
    at = truth_interp(ds)
    errs = [np.sum((e.pose.mean.position - at(e.stamp)) ** 2) for e in estimates]
    return float(np.sqrt(np.mean(errs)))


class TestNoiselessConsistency:
    def test_tracks_truth_to_millimeters(self):
        sc = quiet_scenario()
        ds = sim.simulate(sc)
        config = UflsConfig(initial_pose=ds.truth[0][1])
        ufls = Ufls(config, sc.anchors)
        estimates, accepted = replay_ufls(ds, ufls)
        assert len(estimates) == 51
        assert position_rmse(estimates, ds) < 1e-3
        assert all(accepted.values())
        assert estimates[-1].rejected_count == 0
        assert "dead_reckoning" not in estimates[-1].flags

    def test_estimate_stamps_on_tick_grid(self):
        sc = quiet_scenario(duration=3.0)
        ds = sim.simulate(sc)
        ufls = Ufls(UflsConfig(initial_pose=ds.truth[0][1]), sc.anchors)
        estimates, _ = replay_ufls(ds, ufls)
        stamps = [e.stamp for e in estimates]
        np.testing.assert_allclose(stamps, np.arange(16) * 0.2, atol=1e-9)


class TestWindowSpanningEqualsBatch:
    def test_identical_to_batch_oracle(self):
        sc = sim.preset_scenario("small", seed=8, duration=10.0)
        ds = sim.simulate(sc)
        start_cov = np.diag([0.1**2] * 3 + [0.1**2] * 3)
        config = UflsConfig(
            window=100.0,
            gate=1e9,
            initial_pose=ds.truth[0][1],
            initial_sigma_trans=0.1,
            initial_sigma_rot=0.1,
            solver=TIGHT,
        )
        ufls = Ufls(config, sc.anchors)
        estimates, _ = replay_ufls(ds, ufls)
        batch = sim.batch_oracle(
            ds.ranges,
            ds.odometry,
            sc.anchors,
            mode="const_bias",
            initial_pose=PoseWithCovariance(ds.truth[0][1], start_cov),
            options=TIGHT,
        )
        states = ufls.window_states()
        assert len(states) == len(batch.poses)
        worst = 0.0
        for (t, pose), t_b, pose_b in zip(states, batch.stamps, batch.poses):
            assert t == pytest.approx(t_b, abs=1e-9)
            worst = max(worst, np.linalg.norm(pose.position - pose_b.position))
            worst = max(worst, np.linalg.norm(log(pose_b.inverse() @ pose)))
        assert worst < 1e-8
        final_biases = estimates[-1].biases
        for aid, b in batch.biases.items():
            assert final_biases[aid][0] == pytest.approx(b, abs=1e-8)

    def test_sliding_window_rmse_near_batch(self):
        # a constant bias couples every state to the whole run, which no
        # fixed-lag smoother can reproduce, so the approximation claim is
        # only well-posed with biases held fixed on both sides
        sc = sim.preset_scenario("small", seed=8, duration=12.0)
        ds = sim.simulate(sc)
        start_cov = np.diag([0.1**2] * 3 + [0.1**2] * 3)
        config = UflsConfig(initial_pose=ds.truth[0][1], bias_estimation=False)
        ufls = Ufls(config, sc.anchors)
        replay_ufls(ds, ufls)
        batch = sim.batch_oracle(
            ds.ranges,
            ds.odometry,
            sc.anchors,
            mode="no_bias",
            initial_pose=PoseWithCovariance(ds.truth[0][1], start_cov),
        )
        at = truth_interp(ds)
        batch_errs = [
            np.sum((p.position - at(t)) ** 2) for t, p in zip(batch.stamps, batch.poses)
        ]
        batch_rmse = float(np.sqrt(np.mean(batch_errs)))
        sm_errs = [
            np.sum((pose.position - at(t)) ** 2)
            for t, pose in ufls.smoothed_trajectory()
        ]
        sliding_rmse = float(np.sqrt(np.mean(sm_errs)))
        assert sliding_rmse < 0.15
        assert abs(sliding_rmse - batch_rmse) <= 0.2 * max(sliding_rmse, batch_rmse)


class TestBiasEstimation:
    def test_recovers_injected_biases_within_reported_sigma(self):
        sc = sim.preset_scenario(
            "small", seed=13, duration=12.0, bias_map={0: 0.45, 3: -0.35}
        )
        ds = sim.simulate(sc)
        ufls = Ufls(UflsConfig(initial_pose=ds.truth[0][1]), sc.anchors)
        estimates, _ = replay_ufls(ds, ufls)
        final = estimates[-1].biases
        for aid, truth in ds.scenario.bias_map.items():
            mean, sigma = final[aid]
            assert abs(mean - truth) < 3.0 * sigma
            assert sigma < 0.2
        clean = [aid for aid in final if aid not in ds.scenario.bias_map]
        for aid in clean:
            mean, sigma = final[aid]
            assert abs(mean) < 3.0 * sigma + 0.05

    def test_constant_bias_variable_when_walk_disabled(self):
        sc = quiet_scenario(duration=4.0, bias_map={1: 0.3})
        ds = sim.simulate(sc)
        config = UflsConfig(initial_pose=ds.truth[0][1], bias_walk_sigma=0.0)
        ufls = Ufls(config, sc.anchors)
        replay_ufls(ds, ufls)
        epochs = {key.epoch for key in ufls._current_bias.values()}
        assert epochs == {0}
        assert all(k.epoch == 0 for k in ufls._bias_epochs.values())

    def test_bias_epochs_advance_with_walk(self):
        sc = quiet_scenario(duration=4.0)
        ds = sim.simulate(sc)
        config = UflsConfig(initial_pose=ds.truth[0][1], bias_walk_sigma=0.05)
        ufls = Ufls(config, sc.anchors)
        replay_ufls(ds, ufls)
        epochs = {key.epoch for key in ufls._current_bias.values()}
        assert max(epochs) >= 2


class TestGating:
    def make_static(self):
        anchors = sim.ANCHORS_SMALL
        config = UflsConfig(initial_pose=Pose(np.eye(3), np.array([3.0, 4.0, 1.5])))
        ufls = Ufls(config, anchors)
        for k in range(3):
            ufls.ingest_odometry(
                OdometrySample(
                    0.1 * k, PoseWithCovariance(Pose.identity(), np.eye(6) * 1e-8)
                )
            )
        return ufls, anchors

    def feed_clean_ranges(self, ufls, anchors, stamp):
        p = np.array([3.0, 4.0, 1.5])
        for a in anchors:
            d = float(np.linalg.norm(a.position - p))
            assert ufls.ingest_range(RangeMeasurement(stamp, a.id, d, 0.1))

    def test_spike_rejected_clean_accepted(self):
        ufls, anchors = self.make_static()
        self.feed_clean_ranges(ufls, anchors, 0.05)
        est = ufls.update(0.2)
        assert est is not None
        # past the startup window the plain gate applies
        for k in range(2, 16):
            ufls.ingest_odometry(
                OdometrySample(
                    0.1 * k + 0.1, PoseWithCovariance(Pose.identity(), np.eye(6) * 1e-8)
                )
            )
        for t in (0.4, 0.6, 0.8, 1.0, 1.2, 1.4):
            self.feed_clean_ranges(ufls, anchors, t - 0.05)
            ufls.update(t)
        p = np.array([3.0, 4.0, 1.5])
        d0 = float(np.linalg.norm(anchors[0].position - p))
        before = ufls.latest.rejected_count
        assert not ufls.ingest_range(RangeMeasurement(1.45, 0, d0 + 2.0, 0.1))
        assert not ufls.ingest_range(RangeMeasurement(1.45, 0, d0 + 0.6, 0.1))
        assert ufls.ingest_range(RangeMeasurement(1.45, 0, d0 + 0.3, 0.1))
        est = ufls.update(1.6)
        assert est.rejected_count == before + 2

    def test_startup_gate_is_inflated(self):
        ufls, anchors = self.make_static()
        self.feed_clean_ranges(ufls, anchors, 0.05)
        ufls.update(0.2)
        p = np.array([3.0, 4.0, 1.5])
        d0 = float(np.linalg.norm(anchors[0].position - p))
        # 1.2 m innovation: inside the 3x startup gate, outside the 0.5 gate
        assert ufls.ingest_range(RangeMeasurement(0.25, 0, d0 + 1.2, 0.1))
        assert not ufls.ingest_range(RangeMeasurement(0.25, 0, d0 + 1.6, 0.1))

    def test_unknown_anchor_warns_and_drops(self):
        ufls, _ = self.make_static()
        with pytest.warns(UserWarning, match="unknown anchor 42"):
            assert not ufls.ingest_range(RangeMeasurement(0.05, 42, 3.0, 0.1))

    def test_prediction_accounts_for_estimated_bias(self):
        sc = quiet_scenario(duration=6.0, bias_map={0: 0.45})
        ds = sim.simulate(sc)
        ufls = Ufls(UflsConfig(initial_pose=ds.truth[0][1]), sc.anchors)
        _, accepted = replay_ufls(ds, ufls)
        from_biased = [ok for (stamp, aid), ok in accepted.items() if aid == 0]
        assert all(from_biased)


class TestOdometryStream:
    def test_stamp_regression_dropped_with_warning(self):
        ufls = Ufls(UflsConfig(initial_pose=Pose.identity()), sim.ANCHORS_SMALL)
        s = OdometrySample(0.2, PoseWithCovariance(Pose.identity(), np.eye(6) * 1e-8))
        assert ufls.ingest_odometry(s)
        with pytest.warns(UserWarning, match="not ahead"):
            assert not ufls.ingest_odometry(s)

    def test_gap_flag_and_inflated_uncertainty(self):
        def run(with_gap):
            config = UflsConfig(
                initial_pose=Pose(np.eye(3), np.array([3.0, 4.0, 1.5])),
                gap_threshold=0.2,
            )
            ufls = Ufls(config, sim.ANCHORS_SMALL)
            stamps = [k * 0.05 for k in range(17)]
            if with_gap:
                stamps = [t for t in stamps if not 0.25 < t < 0.55]
            for t in stamps:
                ufls.ingest_odometry(
                    OdometrySample(
                        t, PoseWithCovariance(Pose.identity(), np.eye(6) * 1e-8)
                    )
                )
            ufls.update(0.2)
            est = ufls.update(0.6)
            return est

        gapped = run(True)
        smooth = run(False)
        assert "odometry_gap" in gapped.flags
        assert "odometry_gap" not in smooth.flags
        assert np.trace(gapped.pose.cov) > np.trace(smooth.pose.cov)

    def test_dead_reckoning_flag_and_growing_uncertainty(self):
        ufls = Ufls(
            UflsConfig(initial_pose=Pose(np.eye(3), np.array([3.0, 4.0, 1.5]))),
            sim.ANCHORS_SMALL,
        )
        for k in range(30):
            ufls.ingest_odometry(
                OdometrySample(
                    0.05 * k, PoseWithCovariance(Pose.identity(), np.eye(6) * 1e-6)
                )
            )
        traces = []
        for t in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4):
            est = ufls.update(t)
            assert "dead_reckoning" in est.flags
            traces.append(np.trace(est.pose.cov))
        assert traces[-1] > traces[0]


class TestFrameOffset:
    def test_mean_is_world_from_odometry(self):
        sc = quiet_scenario(duration=4.0)
        ds = sim.simulate(sc)
        ufls = Ufls(UflsConfig(initial_pose=ds.truth[0][1]), sc.anchors)
        estimates, _ = replay_ufls(ds, ufls)
        est = estimates[-1]
        offset = ufls.frame_offset(est)
        recon = offset.mean @ est.matched_odometry
        np.testing.assert_allclose(recon.position, est.pose.mean.position, atol=1e-9)
        np.testing.assert_allclose(recon.rotation, est.pose.mean.rotation, atol=1e-9)
        # zero drift: offset equals the first truth pose
        np.testing.assert_allclose(
            offset.mean.position, ds.truth[0][1].position, atol=5e-3
        )

    def test_offset_covariance_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        pose = exp(np.array([0.4, -0.2, 0.6, 0.3, -0.1, 0.2]))
        odom = exp(np.array([-0.5, 0.8, 0.1, -0.2, 0.4, 0.15]))
        cov = np.diag([0.02, 0.03, 0.015, 0.01, 0.02, 0.012])
        mean_off = pose @ odom.inverse()
        draws = rng.multivariate_normal(np.zeros(6), cov, size=20000)
        logs = np.array(
            [log(mean_off.inverse() @ (pose @ exp(xi) @ odom.inverse())) for xi in draws]
        )
        mc = logs.T @ logs / len(logs)
        ad = adjoint(odom)
        analytic = ad @ cov @ ad.T
        err = np.linalg.norm(mc - analytic) / np.linalg.norm(analytic)
        assert err < 0.1

    def test_position_measurement_rotates_covariance_to_world(self):
        pose = exp(np.array([0.1, 0.2, -0.1, 0.4, -0.3, 0.9]))
        cov = np.diag([0.04, 0.01, 0.02, 0.1, 0.1, 0.1])
        y, cov_w, rot = offset_position_measurement(PoseWithCovariance(pose, cov))
        np.testing.assert_allclose(y, pose.position, atol=1e-12)
        np.testing.assert_allclose(rot, pose.rotation, atol=1e-12)
        np.testing.assert_allclose(
            cov_w, pose.rotation @ cov[:3, :3] @ pose.rotation.T, atol=1e-12
        )


class TestMultilateration:
    def test_exact_ranges_recover_position(self):
        anchors = np.asarray([a.position for a in sim.ANCHORS_SMALL])
        p = np.array([2.5, 3.5, 1.2])
        r = np.linalg.norm(anchors - p, axis=1)
        got, rms = multilaterate(anchors, r)
        np.testing.assert_allclose(got, p, atol=1e-9)
        assert rms < 1e-9

    def test_single_spike_tolerated(self):
        anchors = np.asarray([a.position for a in sim.ANCHORS_SMALL])
        p = np.array([2.5, 3.5, 1.2])
        r = np.linalg.norm(anchors - p, axis=1)
        r[2] += 2.0
        got, _ = multilaterate(anchors, r)
        assert np.linalg.norm(got - p) < 0.15

    def test_too_few_anchors_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            multilaterate(np.zeros((3, 3)), np.ones(3))


class TestBootstrap:
    def test_starts_from_ranges_alone(self):
        sc = quiet_scenario(duration=8.0)
        ds = sim.simulate(sc)
        ufls = Ufls(UflsConfig(), sc.anchors)
        estimates, _ = replay_ufls(ds, ufls)
        # the first tick cannot start (too few anchors seen), later ones do
        assert estimates[0].stamp > 0.0
        assert len(estimates) >= 35
        at = truth_interp(ds)
        final = estimates[-1]
        assert np.linalg.norm(final.pose.mean.position - at(final.stamp)) < 0.02

    def test_update_without_odometry_stays_unstarted(self):
        ufls = Ufls(UflsConfig(initial_pose=Pose.identity()), sim.ANCHORS_SMALL)
        assert ufls.update(0.0) is None
        assert not ufls.started


class TestCausality:
    def test_future_ranges_stay_queued(self):
        ufls = Ufls(
            UflsConfig(initial_pose=Pose(np.eye(3), np.array([3.0, 4.0, 1.5]))),
            sim.ANCHORS_SMALL,
        )
        for k in range(9):
            ufls.ingest_odometry(
                OdometrySample(
                    0.1 * k, PoseWithCovariance(Pose.identity(), np.eye(6) * 1e-8)
                )
            )
        assert ufls.ingest_range(RangeMeasurement(0.75, 0, 3.0, 0.1))
        ufls.update(0.5)
        assert [z.stamp for z in ufls._range_queue] == [0.75]
        ufls.update(0.8)
        assert ufls._range_queue == []
