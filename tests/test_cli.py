"""End-to-end tests of the command line interface.

Commands run in-process through ``main`` so exit codes and output files are
checked exactly as a caller would see them. Datasets stay short to keep the
replay fast; accuracy at scale is covered by the estimator tests.
"""

from pathlib import Path

import numpy as np
import pytest
import yaml

import raloc.io as rio
from raloc import sim
from raloc.cli import ESTIMATOR_SCHEMA, main, nearest_pairs, trajectory_metrics
from raloc.lie import Pose
from raloc.solver import SingularSystem
from raloc.ufls import Ufls

README = Path(__file__).resolve().parents[1] / "README.md"


def write_estimator_config(path, anchors=None, **sections):
    anchors = sim.ANCHORS_SMALL if anchors is None else anchors
    cfg = {
        "anchors": [
            {"id": a.id, "position": [float(x) for x in a.position]}
            for a in anchors
        ]
    }
    cfg.update(sections)
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(cfg, handle)
    return path


def simulate_into(tmp_dir, **overrides):
    scenario = sim.preset_scenario("small", **overrides)
    dataset = sim.simulate(scenario)
    sim.write_dataset(dataset, tmp_dir)
    return dataset


@pytest.fixture(scope="module")
def quiet_run(tmp_path_factory):
    """Short noiseless dataset plus a matching estimator config."""
    root = tmp_path_factory.mktemp("quiet")
    data = root / "data"
    dataset = simulate_into(
        data,
        duration=8.0,
        range_sigma=0.0,
        odom_noise_trans=0.0,
        odom_noise_rot=0.0,
        odom_drift_trans=np.zeros(3),
        odom_drift_yaw=0.0,
    )
    config = write_estimator_config(root / "config.yaml")
    return data, config, dataset


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    """Short dataset with nominal noise and drift, no biases."""
    root = tmp_path_factory.mktemp("noisy")
    data = root / "data"
    dataset = simulate_into(data, duration=10.0, seed=7)
    config = write_estimator_config(root / "config.yaml")
    return data, config, dataset


class TestSimulate:
    def test_writes_dataset_files(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--seed", "2"]) == 0
        for name in (
            "dataset.log",
            "ground_truth.log",
            "true_offsets.log",
            "nlos_labels.txt",
            "true_biases.txt",
        ):
            assert (out / name).exists()
        summary = capsys.readouterr().out
        assert "odometry records" in summary and "seed 2" in summary

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--out", str(a), "--seed", "5"]) == 0
        assert main(["simulate", "--out", str(b), "--seed", "5"]) == 0
        assert (a / "dataset.log").read_bytes() == (b / "dataset.log").read_bytes()

    def test_seed_changes_the_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--out", str(a), "--seed", "1"])
        main(["simulate", "--out", str(b), "--seed", "2"])
        assert (a / "dataset.log").read_bytes() != (b / "dataset.log").read_bytes()

    def test_scenario_file(self, tmp_path):
        scenario = {
            "duration": 3.0,
            "waypoints": [[1.0, 1.0, 1.0], [5.0, 6.0, 2.0], [1.0, 6.0, 1.5]],
            "anchors": [
                {"id": a.id, "position": [float(x) for x in a.position]}
                for a in sim.ANCHORS_SMALL
            ],
        }
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(scenario))
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--scenario", str(path)]) == 0
        records = list(rio.read_log(out / "dataset.log"))
        odom = [r for r in records if isinstance(r, rio.OdomRecord)]
        assert len(odom) == 601

    @pytest.mark.parametrize(
        "key, value", [("range_rate", 0), ("odom_rate", 0), ("range_sigma", -0.1)]
    )
    def test_bad_scenario_value_is_an_error(self, tmp_path, capsys, key, value):
        scenario = {
            "duration": 3.0,
            "waypoints": [[1.0, 1.0, 1.0], [5.0, 6.0, 2.0]],
            "anchors": [{"id": 1, "position": [0.0, 0.0, 0.0]}],
            key: value,
        }
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(scenario))
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_bad_preset_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--preset", "bogus"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestEstimate:
    def test_full_mode_outputs(self, noisy_run, tmp_path, capsys):
        data, config, dataset = noisy_run
        prefix = str(tmp_path / "run-")
        code = main(
            ["estimate", str(data / "dataset.log"), "--config", str(config),
             "--out", prefix]
        )
        assert code == 0
        summary = capsys.readouterr().err
        corrected = rio.read_trajectory(prefix + "corrected.log")
        smoothed = rio.read_trajectory(prefix + "ufls.log")
        offsets = rio.read_trajectory(prefix + "offsets.log")
        metrics = rio.read_metrics(prefix + "metrics.txt")
        assert metrics["mode"] == "full"
        assert metrics["updates"] == len(smoothed) > 40
        # the stderr summary counts estimates, as metrics.txt does, and the
        # ticks that include the bootstrap tick apart
        assert summary.startswith(f"{metrics['updates']} updates (")
        assert metrics["ranges_accepted"] + metrics["ranges_rejected"] == (
            metrics["range_records"]
        )
        # corrected poses run at the odometry rate once aligned
        assert len(corrected) > 0.9 * metrics["odometry_records"]
        # offset series runs on its own 10 Hz grid
        assert len(offsets) == pytest.approx(10.0 * 10, abs=5)
        stamps = [t for t, _ in corrected]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_quiet_data_tracks_truth(self, quiet_run, tmp_path):
        data, config, dataset = quiet_run
        prefix = str(tmp_path / "q-")
        assert main(
            ["estimate", str(data / "dataset.log"), "--config", str(config),
             "--out", prefix]
        ) == 0
        smoothed = rio.read_trajectory(prefix + "ufls.log")
        truth = {round(t, 6): p for t, p in dataset.truth}
        errs = [
            np.linalg.norm(pose.position - truth[round(t, 6)].position)
            for t, pose in smoothed
        ]
        assert float(np.sqrt(np.mean(np.array(errs) ** 2))) < 1e-3

    def test_rerun_is_byte_identical(self, noisy_run, tmp_path):
        data, config, _ = noisy_run
        pa, pb = str(tmp_path / "a-"), str(tmp_path / "b-")
        for prefix in (pa, pb):
            assert main(
                ["estimate", str(data / "dataset.log"), "--config", str(config),
                 "--out", prefix]
            ) == 0
        for name in ("corrected.log", "ufls.log", "offsets.log", "biases.log",
                     "metrics.txt"):
            with open(pa + name, "rb") as fa, open(pb + name, "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_bias_traces(self, noisy_run, tmp_path):
        data, config, _ = noisy_run
        prefix = str(tmp_path / "run-")
        main(["estimate", str(data / "dataset.log"), "--config", str(config),
              "--out", prefix])
        rows = [line.split() for line in open(prefix + "biases.log")]
        assert rows and all(len(r) == 4 for r in rows)
        ids = {int(r[1]) for r in rows}
        assert ids <= {a.id for a in sim.ANCHORS_SMALL}
        sigmas = [float(r[3]) for r in rows]
        assert all(s > 0 for s in sigmas)

    def test_no_bias_mode_has_empty_traces(self, noisy_run, tmp_path):
        data, config, _ = noisy_run
        prefix = str(tmp_path / "nb-")
        assert main(
            ["estimate", str(data / "dataset.log"), "--config", str(config),
             "--mode", "no-bias", "--out", prefix]
        ) == 0
        assert open(prefix + "biases.log").read() == ""

    def test_no_wnoa_offsets_are_held(self, noisy_run, tmp_path):
        data, config, _ = noisy_run
        prefix = str(tmp_path / "nw-")
        assert main(
            ["estimate", str(data / "dataset.log"), "--config", str(config),
             "--mode", "no-wnoa", "--out", prefix]
        ) == 0
        offsets = rio.read_trajectory(prefix + "offsets.log")
        positions = np.array([p.position for _, p in offsets])
        # 10 Hz sampling of 5 Hz raw offsets: consecutive duplicates exist
        deltas = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        assert np.sum(deltas < 1e-12) >= len(deltas) // 3

    def test_ufls_only_runs_at_tick_rate(self, noisy_run, tmp_path):
        data, config, _ = noisy_run
        prefix = str(tmp_path / "uo-")
        assert main(
            ["estimate", str(data / "dataset.log"), "--config", str(config),
             "--mode", "ufls-only", "--out", prefix]
        ) == 0
        corrected = rio.read_trajectory(prefix + "corrected.log")
        metrics = rio.read_metrics(prefix + "metrics.txt")
        assert len(corrected) == metrics["updates"]
        stamps = np.array([t for t, _ in corrected])
        assert np.allclose(np.diff(stamps), 0.2, atol=1e-9)

    def test_env_override(self, noisy_run, tmp_path, monkeypatch):
        data, config, _ = noisy_run
        monkeypatch.setenv("RALOC_UFLS_UPDATE_RATE", "2.0")
        prefix = str(tmp_path / "env-")
        assert main(
            ["estimate", str(data / "dataset.log"), "--config", str(config),
             "--out", prefix]
        ) == 0
        metrics = rio.read_metrics(prefix + "metrics.txt")
        assert metrics["updates"] == pytest.approx(10.0 * 2, abs=3)

    def test_too_few_anchors_never_initializes(self, noisy_run, tmp_path, capsys):
        data, _, _ = noisy_run
        config = write_estimator_config(
            tmp_path / "three.yaml", anchors=sim.ANCHORS_SMALL[:3]
        )
        with pytest.warns(UserWarning):
            code = main(
                ["estimate", str(data / "dataset.log"), "--config", str(config),
                 "--out", str(tmp_path / "x-")]
            )
        assert code == 2
        assert "never initialized" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [("ufls", "window", "abc"), ("ufls", "gate", None), ("wfls", "update_rate", [1, 2]),
         ("wfls", "qw", None)],
    )
    def test_non_numeric_config_value(self, quiet_run, tmp_path, capsys, section, key, value):
        data, _, _ = quiet_run
        config = write_estimator_config(tmp_path / "c.yaml", **{section: {key: value}})
        code = main(["estimate", str(data / "dataset.log"), "--config", str(config),
                     "--out", str(tmp_path / "x-")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize(
        "error, code, message",
        [(SingularSystem("information matrix singular"), 2, "estimation failed"),
         (ValueError("some other fault"), 1, "error: some other fault")],
    )
    def test_update_failure_exit_codes(self, quiet_run, tmp_path, capsys, monkeypatch,
                                       error, code, message):
        data, config, _ = quiet_run

        def failing_update(self, now):
            raise error

        monkeypatch.setattr(Ufls, "update", failing_update)
        assert main(["estimate", str(data / "dataset.log"), "--config", str(config),
                     "--out", str(tmp_path / "x-")]) == code
        assert capsys.readouterr().err.startswith(message)

    def test_readme_config_block_is_the_schema(self):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("## Estimator config"):]
        block = section[section.index("```yaml") + len("```yaml"):]
        documented = yaml.safe_load(block[: block.index("```")])
        assert set(documented) == set(ESTIMATOR_SCHEMA)
        for key in ("ufls", "wfls", "odometry"):
            assert documented[key] == ESTIMATOR_SCHEMA[key], key

    def test_ground_truth_as_dataset_is_rejected(self, noisy_run, tmp_path, capsys):
        data, config, _ = noisy_run
        code = main(
            ["estimate", str(data / "ground_truth.log"), "--config", str(config),
             "--out", str(tmp_path / "x-")]
        )
        assert code == 1
        assert "GT records" in capsys.readouterr().err

    def test_missing_covariance_needs_default(self, tmp_path, capsys):
        scenario = sim.preset_scenario("small", duration=4.0, range_sigma=0.0,
                                       odom_noise_trans=0.0, odom_noise_rot=0.0,
                                       odom_drift_trans=np.zeros(3),
                                       odom_drift_yaw=0.0)
        dataset = sim.simulate(scenario)
        stripped = [
            rio.OdomRecord(r.stamp, r.position, r.quaternion, None, r.relative)
            for r in dataset.odometry
        ]
        log = tmp_path / "bare.log"
        rio.write_log(log, sorted(stripped + dataset.ranges, key=lambda r: r.stamp))
        config = write_estimator_config(tmp_path / "c1.yaml")
        assert main(["estimate", str(log), "--config", str(config),
                     "--out", str(tmp_path / "x-")]) == 1
        assert "default_sigma" in capsys.readouterr().err
        config = write_estimator_config(
            tmp_path / "c2.yaml",
            odometry={"default_sigma": [0.002, 0.002, 0.002, 0.001, 0.001, 0.001]},
        )
        assert main(["estimate", str(log), "--config", str(config),
                     "--out", str(tmp_path / "y-")]) == 0

    @pytest.mark.parametrize("bad", ["RANGE {t} 1 nan 0.1", "ODOM {t} abs 0 0 0 nan 0 0 1"])
    def test_non_finite_record_is_rejected(self, quiet_run, tmp_path, capsys, bad):
        data, config, _ = quiet_run
        lines = (data / "dataset.log").read_text().splitlines()
        stamp = lines[99].split()[1]
        lines.insert(100, bad.format(t=stamp))
        log = tmp_path / "nan.log"
        log.write_text("\n".join(lines) + "\n")
        code = main(["estimate", str(log), "--config", str(config),
                     "--out", str(tmp_path / "x-")])
        assert code == 1
        assert "nan.log:101: non-finite value nan" in capsys.readouterr().err

    def test_unknown_config_key(self, noisy_run, tmp_path, capsys):
        data, _, _ = noisy_run
        config = write_estimator_config(tmp_path / "c.yaml", ufls={"gatee": 1.0})
        code = main(
            ["estimate", str(data / "dataset.log"), "--config", str(config),
             "--out", str(tmp_path / "x-")]
        )
        assert code == 1
        assert "gatee" in capsys.readouterr().err


class TestBatch:
    def test_quiet_batch_matches_truth(self, quiet_run, tmp_path):
        data, config, dataset = quiet_run
        prefix = str(tmp_path / "b-")
        assert main(
            ["batch", str(data / "dataset.log"), "--config", str(config),
             "--out", prefix]
        ) == 0
        poses = rio.read_trajectory(prefix + "batch.log")
        truth = {round(t, 6): p for t, p in dataset.truth}
        errs = [
            np.linalg.norm(pose.position - truth[round(t, 6)].position)
            for t, pose in poses
        ]
        assert max(errs) < 1e-3
        metrics = rio.read_metrics(prefix + "metrics.txt")
        assert metrics["converged"] == 1
        assert any(key.startswith("anchor_") for key in metrics)

    def test_no_bias_model(self, quiet_run, tmp_path):
        data, config, _ = quiet_run
        prefix = str(tmp_path / "nb-")
        assert main(
            ["batch", str(data / "dataset.log"), "--config", str(config),
             "--bias", "none", "--out", prefix]
        ) == 0
        metrics = rio.read_metrics(prefix + "metrics.txt")
        assert metrics["bias_model"] == "none"
        assert not any(key.startswith("anchor_") for key in metrics)

    def test_no_bias_model_holds_prior_mean(self, tmp_path):
        dataset = simulate_into(
            tmp_path / "data",
            duration=4.0,
            range_sigma=0.0,
            odom_noise_trans=0.0,
            odom_noise_rot=0.0,
            odom_drift_trans=np.zeros(3),
            odom_drift_yaw=0.0,
            bias_map={2: 0.4},
        )
        anchors = [
            {"id": a.id, "position": [float(x) for x in a.position]}
            for a in sim.ANCHORS_SMALL
        ]
        anchors[2]["bias_prior_mean"] = 0.4
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"anchors": anchors}))
        prefix = str(tmp_path / "nb-")
        assert main(
            ["batch", str(tmp_path / "data" / "dataset.log"), "--config", str(config),
             "--bias", "none", "--out", prefix]
        ) == 0
        truth = {round(t, 6): p for t, p in dataset.truth}
        errs = [
            np.linalg.norm(pose.position - truth[round(t, 6)].position)
            for t, pose in rio.read_trajectory(prefix + "batch.log")
        ]
        assert max(errs) < 1e-3


class TestEvaluate:
    def make_trajectory(self, path, positions, stamps=None):
        stamps = np.arange(len(positions)) * 0.1 if stamps is None else stamps
        poses = [
            (float(t), Pose(np.eye(3), np.asarray(p, dtype=float)))
            for t, p in zip(stamps, positions)
        ]
        rio.write_trajectory(path, poses)
        return poses

    def test_identical_is_zero_error(self, tmp_path, capsys):
        pts = [[t, 2 * t, 0.5] for t in np.linspace(0, 3, 31)]
        path = tmp_path / "traj.log"
        self.make_trajectory(path, pts)
        assert main(["evaluate", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        metrics = dict(line.split(": ") for line in out.strip().splitlines())
        assert float(metrics["rmse"]) == 0.0
        assert float(metrics["max_error"]) == 0.0
        assert int(metrics["pairs"]) == 31

    def test_constant_offset_and_alignment(self, tmp_path):
        pts = np.array([[t, np.sin(t), 0.0] for t in np.linspace(0, 3, 31)])
        ref = tmp_path / "ref.log"
        est = tmp_path / "est.log"
        self.make_trajectory(ref, pts)
        self.make_trajectory(est, pts + [0.3, -0.4, 0.0])
        metrics_path = tmp_path / "m.txt"
        assert main(["evaluate", str(est), str(ref), "--out", str(metrics_path)]) == 0
        metrics = rio.read_metrics(metrics_path)
        assert metrics["rmse"] == pytest.approx(0.5, abs=1e-9)
        assert main(["evaluate", str(est), str(ref), "--align", "first-pose",
                     "--out", str(metrics_path)]) == 0
        aligned = rio.read_metrics(metrics_path)
        assert aligned["rmse"] < 1e-9

    def test_disjoint_stamps_fail(self, tmp_path, capsys):
        a = tmp_path / "a.log"
        b = tmp_path / "b.log"
        self.make_trajectory(a, [[0, 0, 0]] * 5, stamps=np.arange(5) * 0.1)
        self.make_trajectory(b, [[0, 0, 0]] * 5, stamps=10.0 + np.arange(5) * 0.1)
        assert main(["evaluate", str(a), str(b)]) == 1
        assert "pair up" in capsys.readouterr().err

    def test_accepts_ground_truth_logs(self, quiet_run, tmp_path):
        data, _, _ = quiet_run
        gt = str(data / "ground_truth.log")
        assert main(["evaluate", gt, gt]) == 0

    def test_smoothness_metric(self):
        line = [(0.1 * i, Pose(np.eye(3), np.array([0.1 * i, 0.0, 0.0])))
                for i in range(20)]
        kinked = [
            (t, Pose(np.eye(3), p.position + [0.0, 0.05 * (i == 10), 0.0]))
            for i, (t, p) in enumerate(line)
        ]
        flat = trajectory_metrics(line, line)
        bent = trajectory_metrics(kinked, line)
        assert flat["smoothness"] < 1e-12
        assert bent["smoothness"] == pytest.approx(0.1, abs=1e-9)

    def test_non_finite_trajectory_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "traj.log"
        self.make_trajectory(path, [[0, 0, 0]] * 3)
        path.write_text(path.read_text() + "0.3 inf 0 0 0 0 0 1\n")
        assert main(["evaluate", str(path), str(path)]) == 1
        assert "traj.log:4: non-finite value inf" in capsys.readouterr().err

    def test_pairing_matches_per_pose_search(self):
        """One vectorized search pairs exactly as a search per estimated pose."""
        rng = np.random.default_rng(3)
        ref_t = np.round(np.cumsum(rng.uniform(0.002, 0.02, size=200)), 3)
        # exact ties between two references, exact hits, the max_gap edge,
        # stamps beyond either end, and random ones
        est_t = np.sort(np.concatenate([
            (ref_t[:-1] + ref_t[1:]) / 2.0,
            ref_t[::7],
            ref_t[::11] + 0.010,
            [ref_t[0] - 0.010, ref_t[0] - 0.5, ref_t[-1] + 0.010, ref_t[-1] + 0.5],
            rng.uniform(ref_t[0], ref_t[-1], size=100),
        ]))
        expected = []
        for k, stamp in enumerate(est_t):
            j = int(np.clip(np.searchsorted(ref_t, stamp), 1, len(ref_t) - 1))
            j = j if abs(ref_t[j] - stamp) < abs(ref_t[j - 1] - stamp) else j - 1
            if abs(ref_t[j] - stamp) <= 0.010:
                expected.append((k, j))
        ties = [(k, j) for k, j in expected
                if j + 1 < len(ref_t) and ref_t[j + 1] - est_t[k] == est_t[k] - ref_t[j]]
        assert ties
        est_idx, ref_idx = nearest_pairs(est_t, ref_t, 0.010)
        assert list(zip(est_idx.tolist(), ref_idx.tolist())) == expected
        single, _ = nearest_pairs(est_t, ref_t[:1], 0.010)
        assert single.tolist() == [k for k, t in enumerate(est_t) if abs(t - ref_t[0]) <= 0.010]

        reference = [(float(t), Pose(np.eye(3), np.array([k, 0.0, 0.0])))
                     for k, t in enumerate(ref_t)]
        estimated = [(float(t), Pose(np.eye(3), np.array([0.0, k, 0.0])))
                     for k, t in enumerate(est_t)]
        metrics = trajectory_metrics(estimated, reference)
        err = np.array([[j, -k, 0.0] for k, j in expected])
        assert metrics["pairs"] == len(expected)
        assert metrics["max_error"] == float(np.max(np.linalg.norm(err, axis=1)))

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["evaluate", str(tmp_path / "no.log"),
                     str(tmp_path / "no.log")]) == 3
        assert "i/o error" in capsys.readouterr().err


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_bad_mode(self, tmp_path, capsys):
        assert main(["estimate", "x.log", "--config", "c.yaml",
                     "--mode", "bogus", "--out", "y"]) == 1
        assert "invalid choice" in capsys.readouterr().err
