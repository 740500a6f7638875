"""Simulator invariants: smoothness, determinism, and the batch reference."""

import numpy as np
import pytest

from raloc import io as rio
from raloc import sim
from raloc.factors import PriorFactor
from raloc.lie import Pose, PoseWithCovariance


def quiet_scenario(**overrides):
    """Preset scenario with all noise, drift, and bias switched off."""
    base = dict(
        duration=8.0,
        range_sigma=0.0,
        odom_noise_trans=0.0,
        odom_noise_rot=0.0,
        odom_drift_trans=np.zeros(3),
        odom_drift_yaw=0.0,
    )
    base.update(overrides)
    return sim.preset_scenario("small", seed=3, **base)


class TestTrajectory:
    def test_passes_through_waypoints(self):
        wps = sim.WAYPOINTS_SMALL
        traj = sim.generate_trajectory(wps, speed=1.0, duration=20.0)
        dense = np.asarray([traj.position_at(t) for t in np.linspace(0, 20, 4001)])
        for wp in wps[:-1]:
            miss = np.min(np.linalg.norm(dense - wp, axis=1))
            assert miss < 0.05

    def test_speed_is_near_commanded(self):
        traj = sim.generate_trajectory(sim.WAYPOINTS_SMALL, speed=1.3, duration=15.0)
        speeds = np.array(
            [np.linalg.norm(traj.velocity_at(t)) for t in np.linspace(0.3, 14.7, 500)]
        )
        assert speeds.max() <= 1.3 * 1.05
        assert abs(np.mean(speeds) - 1.3) < 0.05

    def test_position_is_twice_differentiable(self):
        traj = sim.generate_trajectory(sim.WAYPOINTS_SMALL, speed=1.0, duration=12.0)
        dt = 1.0 / 200.0
        pos = np.asarray([p.position for p in traj.poses])
        accel_fd = (pos[2:] - 2.0 * pos[1:-1] + pos[:-2]) / dt**2
        accel_exact = np.asarray(
            [traj._spline(t, 2) for t in traj.stamps[1:-1]]
        )
        scale = max(1.0, np.linalg.norm(accel_exact, axis=1).max())
        err = np.linalg.norm(accel_fd - accel_exact, axis=1).max()
        assert err < 0.05 * scale
        assert np.linalg.norm(accel_exact, axis=1).max() < 25.0

    def test_yaw_follows_velocity(self):
        traj = sim.generate_trajectory(sim.WAYPOINTS_SMALL, speed=1.0, duration=12.0)
        for t in np.linspace(0.5, 11.5, 60):
            v = traj.velocity_at(t)
            horiz = np.hypot(v[0], v[1])
            if horiz < 0.1:
                continue
            heading = traj.pose_at(t).rotation[:, 0]
            assert heading[:2] @ (v[:2] / horiz) == pytest.approx(1.0, abs=1e-9)
            assert heading[2] == pytest.approx(0.0, abs=1e-12)

    def test_closed_path_loops_inside_the_volume(self):
        traj = sim.generate_trajectory(sim.WAYPOINTS_SMALL, speed=1.0, duration=90.0)
        pos = np.asarray([p.position for p in traj.poses])
        assert np.all(pos >= -1e-9) and np.all(pos <= np.array([7.0, 8.0, 3.5]))
        # looping actually revisits the start region instead of stopping
        start = pos[0]
        later = np.linalg.norm(pos[4000:] - start, axis=1)
        assert later.min() < 0.2

    def test_open_path_too_short_raises(self):
        wps = np.array([[0.0, 0, 1], [4.0, 0, 1]])
        with pytest.raises(ValueError, match="open path"):
            sim.generate_trajectory(wps, speed=1.0, duration=30.0)

    def test_duplicate_waypoints_raise(self):
        wps = np.array([[0.0, 0, 1], [0.0, 0, 1], [4.0, 0, 1]])
        with pytest.raises(ValueError, match="duplicate"):
            sim.generate_trajectory(wps, speed=1.0, duration=3.0)


class TestSimulate:
    def test_byte_identical_across_reruns(self, tmp_path):
        sc = sim.preset_scenario("small", seed=11, duration=5.0, nlos_fraction=0.05)
        a, b = tmp_path / "a", tmp_path / "b"
        sim.write_dataset(sim.simulate(sc), a)
        sc2 = sim.preset_scenario("small", seed=11, duration=5.0, nlos_fraction=0.05)
        sim.write_dataset(sim.simulate(sc2), b)
        for name in ("dataset.log", "ground_truth.log", "true_offsets.log", "nlos_labels.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_data(self):
        z1 = [r.range_m for r in sim.simulate(sim.preset_scenario("small", seed=1, duration=3.0)).ranges]
        z2 = [r.range_m for r in sim.simulate(sim.preset_scenario("small", seed=2, duration=3.0)).ranges]
        assert z1 != z2

    def test_quiet_odometry_equals_truth_in_local_frame(self):
        ds = sim.simulate(quiet_scenario())
        t0_inv = ds.truth[0][1].inverse()
        for rec, (_, pose) in zip(ds.odometry[::50], ds.truth[::50]):
            expected = t0_inv @ pose
            got = rio.parts_to_pose(rec.position, rec.quaternion)
            np.testing.assert_allclose(got.position, expected.position, atol=1e-8)
            np.testing.assert_allclose(got.rotation, expected.rotation, atol=1e-8)

    def test_quiet_offsets_are_constant_first_pose(self):
        ds = sim.simulate(quiet_scenario())
        first = ds.truth[0][1]
        for _, off in ds.offsets[:: len(ds.offsets) // 10]:
            np.testing.assert_allclose(off.position, first.position, atol=1e-8)
            np.testing.assert_allclose(off.rotation, first.rotation, atol=1e-8)

    def test_drift_moves_the_offset(self):
        ds = sim.simulate(
            quiet_scenario(odom_drift_trans=np.array([0.02, 0.0, 0.0]), odom_drift_yaw=0.005)
        )
        start = ds.offsets[0][1]
        end = ds.offsets[-1][1]
        assert np.linalg.norm(end.position - start.position) > 0.05

    def test_quiet_ranges_match_geometry(self):
        sc = quiet_scenario()
        ds = sim.simulate(sc)
        anchor_by_id = {a.id: a for a in sc.anchors}
        truth_pos = np.asarray([p.position for _, p in ds.truth])
        truth_t = np.asarray([t for t, _ in ds.truth])
        for rec in ds.ranges[::7]:
            p = np.array(
                [np.interp(rec.stamp, truth_t, truth_pos[:, k]) for k in range(3)]
            )
            dist = np.linalg.norm(anchor_by_id[rec.anchor_id].position - p)
            assert rec.range_m == pytest.approx(dist, abs=1e-3)

    def test_round_robin_anchor_schedule(self):
        sc = quiet_scenario(duration=3.0)
        ds = sim.simulate(sc)
        m = len(sc.anchors)
        ids = [a.id for a in sc.anchors]
        for j, rec in enumerate(ds.ranges):
            assert rec.anchor_id == ids[j % m]
        assert len(ds.ranges) == int(np.floor(3.0 * sc.range_rate + 1e-9)) + 1

    def test_bias_shifts_only_named_anchor(self):
        sc_clean = sim.preset_scenario("small", seed=9, duration=4.0)
        sc_bias = sim.preset_scenario("small", seed=9, duration=4.0, bias_map={2: 0.45})
        clean = sim.simulate(sc_clean).ranges
        biased = sim.simulate(sc_bias).ranges
        for a, b in zip(clean, biased):
            if a.anchor_id == 2:
                assert b.range_m - a.range_m == pytest.approx(0.45, abs=1e-12)
            else:
                assert b.range_m == a.range_m

    def test_nlos_spikes_match_labels_exactly(self):
        kw = dict(duration=6.0, nlos_magnitude=1.7)
        clean = sim.simulate(sim.preset_scenario("small", seed=4, **kw))
        spiked = sim.simulate(
            sim.preset_scenario("small", seed=4, nlos_fraction=0.12, **kw)
        )
        n_flagged = int(np.sum(spiked.nlos))
        n = len(spiked.ranges)
        assert abs(n_flagged - 0.12 * n) < 3.0 * np.sqrt(0.12 * 0.88 * n) + 1
        assert n_flagged > 0
        for a, b, flag in zip(clean.ranges, spiked.ranges, spiked.nlos):
            if flag:
                assert b.range_m - a.range_m == pytest.approx(1.7, abs=1e-12)
            else:
                assert b.range_m == a.range_m

    def test_merged_records_sorted_with_odom_first(self):
        ds = sim.simulate(quiet_scenario(duration=2.0))
        merged = list(ds.merged_records())
        stamps = [r.stamp for r in merged]
        assert stamps == sorted(stamps)
        at_zero = [type(r).__name__ for r in merged if r.stamp == 0.0]
        assert at_zero == ["OdomRecord", "RangeRecord"]

    def test_written_dataset_parses_back(self, tmp_path):
        ds = sim.simulate(quiet_scenario(duration=2.0, nlos_fraction=0.1))
        sim.write_dataset(ds, tmp_path)
        records = list(rio.read_log(tmp_path / "dataset.log"))
        n_r = sum(isinstance(r, rio.RangeRecord) for r in records)
        n_o = sum(isinstance(r, rio.OdomRecord) for r in records)
        assert n_r == len(ds.ranges)
        assert n_o == len(ds.odometry)
        labels = sim.read_nlos_labels(tmp_path / "nlos_labels.txt")
        assert len(labels) == len(ds.ranges)
        assert [flag for _, _, _, flag in labels] == list(ds.nlos)

    def test_bias_map_unknown_anchor_rejected(self):
        with pytest.raises(ValueError, match="unknown anchors"):
            quiet_scenario(bias_map={99: 0.3})


class TestScenarioConfig:
    def make_cfg(self):
        return {
            "seed": 5,
            "duration": 4.0,
            "speed": 1.0,
            "waypoints": sim.WAYPOINTS_SMALL.tolist(),
            "anchors": [
                {"id": a.id, "position": a.position.tolist()} for a in sim.ANCHORS_SMALL
            ],
            "range_rate": 17.0,
            "odom_rate": 200.0,
            "range_sigma": 0.1,
            "odom_noise": {"trans": 0.01, "rot": 0.002},
            "odom_drift": {"trans": [0.01, 0.0, 0.0], "yaw": 0.001},
            "bias_map": {0: 0.4},
            "nlos": {"fraction": 0.0, "magnitude": 2.0},
            "lever_arm": [0.0, 0.0, 0.0],
        }

    def test_build_from_config(self):
        sc = sim.scenario_from_config(self.make_cfg())
        assert sc.seed == 5
        assert sc.bias_map == {0: 0.4}
        assert len(sc.anchors) == 8
        np.testing.assert_allclose(sc.odom_noise_trans, [0.01] * 3)

    def test_anchor_validation(self):
        cfg = self.make_cfg()
        cfg["anchors"][0] = {"id": 0, "position": [1.0, 2.0]}
        with pytest.raises(ValueError, match="3-vector"):
            sim.scenario_from_config(cfg)
        cfg = self.make_cfg()
        cfg["anchors"][1] = {"id": 1, "position": [1, 2, 3], "colour": "red"}
        with pytest.raises(ValueError, match="unknown keys"):
            sim.scenario_from_config(cfg)

    def test_config_file_loads_strict(self, tmp_path):
        import yaml

        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(self.make_cfg()))
        cfg = rio.load_config(path, sim.SCENARIO_SCHEMA, env_prefix=None)
        sc = sim.scenario_from_config(cfg)
        assert sc.duration == 4.0
        path.write_text(yaml.safe_dump({**self.make_cfg(), "windspeed": 3}))
        with pytest.raises(ValueError, match="windspeed"):
            rio.load_config(path, sim.SCENARIO_SCHEMA, env_prefix=None)


class TestBatchOracle:
    def test_quiet_run_recovers_truth_and_bias(self):
        sc = quiet_scenario(duration=8.0, bias_map={0: 0.4, 2: -0.25})
        ds = sim.simulate(sc)
        start = PoseWithCovariance(ds.truth[0][1], np.diag([0.01] * 6))
        sol = sim.batch_oracle(
            ds.ranges, ds.odometry, sc.anchors, mode="const_bias", initial_pose=start
        )
        assert sol.report.converged
        truth_t = np.asarray([t for t, _ in ds.truth])
        truth_pos = np.asarray([p.position for _, p in ds.truth])
        for t, pose in zip(sol.stamps, sol.poses):
            p_true = np.array(
                [np.interp(t, truth_t, truth_pos[:, k]) for k in range(3)]
            )
            assert np.linalg.norm(pose.position - p_true) < 1e-3
        assert sol.biases[0] == pytest.approx(0.4, abs=2e-3)
        assert sol.biases[2] == pytest.approx(-0.25, abs=2e-3)
        for aid, b in sol.biases.items():
            if aid not in (0, 2):
                assert abs(b) < 2e-3

    def test_no_bias_mode_suffers_on_biased_data(self):
        sc = quiet_scenario(duration=8.0, bias_map={0: 0.5, 2: 0.45, 4: 0.5, 6: 0.4})
        ds = sim.simulate(sc)
        start = PoseWithCovariance(ds.truth[0][1], np.diag([0.01] * 6))
        truth_t = np.asarray([t for t, _ in ds.truth])
        truth_pos = np.asarray([p.position for _, p in ds.truth])

        def rmse(sol):
            errs = []
            for t, pose in zip(sol.stamps, sol.poses):
                p_true = np.array(
                    [np.interp(t, truth_t, truth_pos[:, k]) for k in range(3)]
                )
                errs.append(np.sum((pose.position - p_true) ** 2))
            return float(np.sqrt(np.mean(errs)))

        with_bias = rmse(
            sim.batch_oracle(ds.ranges, ds.odometry, sc.anchors, "const_bias", initial_pose=start)
        )
        without = rmse(
            sim.batch_oracle(ds.ranges, ds.odometry, sc.anchors, "no_bias", initial_pose=start)
        )
        assert without > 3.0 * with_bias
        assert without > 0.05

    def test_bootstrap_prior_stays_loose_with_five_anchors(self, monkeypatch):
        # the online smoother's rule: a 4 or 5 anchor fix carries no
        # redundancy, so the prior sigma is floored at 1.0 m, not 0.3 m
        sc = quiet_scenario(duration=2.0, anchors=sim.ANCHORS_SMALL[:5])
        ds = sim.simulate(sc)
        pose_priors = []

        def recording_prior(key, mean, cov):
            if isinstance(mean, Pose):
                pose_priors.append(cov)
            return PriorFactor(key, mean, cov)

        monkeypatch.setattr(sim, "PriorFactor", recording_prior)
        sim.batch_oracle(ds.ranges, ds.odometry, sc.anchors)
        (cov,) = pose_priors
        np.testing.assert_array_equal(np.sqrt(np.diag(cov)[:3]), [1.0, 1.0, 1.0])

    def test_unknown_anchor_in_ranges_rejected(self):
        ds = sim.simulate(quiet_scenario(duration=2.0))
        bad = [rio.RangeRecord(0.5, 77, 3.0, 0.1)]
        with pytest.raises(ValueError, match="unknown anchor 77"):
            sim.batch_oracle(bad, ds.odometry, ds.scenario.anchors)

    def test_mixed_mode_odometry_rejected(self):
        ds = sim.simulate(quiet_scenario(duration=2.0))
        rec = ds.odometry[5]
        mixed = list(ds.odometry)
        mixed[5] = rio.OdomRecord(rec.stamp, rec.position, rec.quaternion, rec.cov_upper, True)
        with pytest.raises(ValueError, match="mixes absolute and relative"):
            sim.batch_oracle(ds.ranges, mixed, ds.scenario.anchors)

    def test_missing_covariance_needs_default(self):
        ds = sim.simulate(quiet_scenario(duration=2.0))
        rec = ds.odometry[3]
        stripped = list(ds.odometry)
        stripped[3] = rio.OdomRecord(rec.stamp, rec.position, rec.quaternion, None, False)
        with pytest.raises(ValueError, match="no covariance"):
            sim.batch_oracle(ds.ranges, stripped, ds.scenario.anchors)
        sol = sim.batch_oracle(
            ds.ranges,
            stripped,
            ds.scenario.anchors,
            initial_pose=PoseWithCovariance(ds.truth[0][1], np.diag([0.01] * 6)),
            default_odom_cov=np.diag([1e-6] * 6),
        )
        assert sol.report.converged
