"""Log serialization, trajectory files, and strict config loading."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from raloc import io as rio
from raloc.sim import SCENARIO_SCHEMA
from raloc.lie import Pose, exp


def random_pose(rng):
    return exp(rng.normal(size=6))


class TestLogRoundtrip:
    def make_records(self, seed=0, with_cov=True):
        rng = np.random.default_rng(seed)
        records = []
        stamp = 0.0
        for k in range(40):
            stamp += float(rng.uniform(0.001, 0.1))
            kind = k % 3
            if kind == 0:
                records.append(
                    rio.RangeRecord(stamp, int(rng.integers(0, 8)),
                                    float(rng.uniform(0.5, 20.0)), 0.1)
                )
            elif kind == 1:
                pos, quat = rio.pose_to_parts(random_pose(rng))
                cov = None
                if with_cov:
                    a = rng.normal(size=(6, 6))
                    cov = rio.pack_upper(a @ a.T * 1e-4)
                records.append(rio.OdomRecord(stamp, pos, quat, cov, relative=bool(k % 2)))
            else:
                pos, quat = rio.pose_to_parts(random_pose(rng))
                records.append(rio.GtRecord(stamp, pos, quat))
        return records

    def test_write_read_write_is_byte_identical(self, tmp_path):
        path = tmp_path / "a.log"
        rio.write_log(path, self.make_records())
        first = path.read_bytes()
        again = tmp_path / "b.log"
        rio.write_log(again, list(rio.read_log(path)))
        assert again.read_bytes() == first

    def test_field_values_survive(self, tmp_path):
        path = tmp_path / "a.log"
        records = self.make_records(seed=3)
        rio.write_log(path, records)
        back = list(rio.read_log(path))
        assert len(back) == len(records)
        for orig, rec in zip(records, back):
            assert type(orig) is type(rec)
            assert rec.stamp == pytest.approx(orig.stamp, abs=1e-9)
        odom_pairs = [
            (o, b) for o, b in zip(records, back) if isinstance(o, rio.OdomRecord)
        ]
        for orig, rec in odom_pairs:
            assert rec.relative == orig.relative
            np.testing.assert_allclose(rec.position, orig.position, atol=1e-9)
            cov_orig = rio.unpack_upper(orig.cov_upper)
            cov_back = rio.unpack_upper(rec.cov_upper)
            np.testing.assert_allclose(cov_back, cov_orig, atol=1e-9)

    def test_odometry_without_covariance(self, tmp_path):
        path = tmp_path / "a.log"
        rio.write_log(path, self.make_records(with_cov=False))
        for rec in rio.read_log(path):
            if isinstance(rec, rio.OdomRecord):
                assert rec.cov_upper is None

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a.log"
        path.write_text("# header\n\nRANGE 1.000000000 2 3.500000000 0.100000000\n")
        recs = list(rio.read_log(path))
        assert len(recs) == 1
        assert recs[0].anchor_id == 2

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("RANGE 1.0 2 3.5 0.1\nRANGE 2.0 oops\n")
        with pytest.raises(ValueError, match="bad.log:2"):
            list(rio.read_log(path))

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("IMU 1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="unknown record tag"):
            list(rio.read_log(path))

    def test_non_unit_quaternion_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("GT 0.0 1.0 2.0 3.0 0.5 0.0 0.0 0.5\n")
        with pytest.raises(ValueError, match="quaternion norm"):
            list(rio.read_log(path))

    def test_stamp_regression_fail_or_drop(self, tmp_path):
        path = tmp_path / "a.log"
        path.write_text(
            "RANGE 1.0 0 3.0 0.1\nRANGE 0.5 1 3.0 0.1\nRANGE 2.0 2 3.0 0.1\n"
        )
        with pytest.raises(ValueError, match="behind previous"):
            list(rio.read_log(path))
        kept = list(rio.read_log(path, on_regression="drop"))
        assert [r.anchor_id for r in kept] == [0, 2]

    @pytest.mark.parametrize("line", [
        "RANGE 0.0 1 nan 0.1",
        "RANGE 0.0 1 3.0 inf",
        "RANGE nan 1 3.0 0.1",
        "ODOM 0.0 abs 0 0 0 nan 0 0 1",
        "ODOM 0.0 abs 0 -inf 0 0 0 0 1",
        "ODOM nan abs 0 0 0 0 0 0 1",
        "ODOM 0.0 rel 0 0 0 0 0 0 1" + " 0" * 20 + " nan",
        "GT 0.0 0 0 inf 0 0 0 1",
        "GT -inf 0 0 0 0 0 0 1",
    ])
    def test_non_finite_value_rejected(self, tmp_path, line):
        path = tmp_path / "bad.log"
        path.write_text("RANGE 0.0 2 3.5 0.1\n" + line + "\n")
        with pytest.raises(ValueError, match=r"bad.log:2: non-finite value"):
            list(rio.read_log(path))

    def test_nan_stamp_cannot_hide_a_regression(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("RANGE 5.0 1 3.0 0.1\nRANGE nan 1 3.0 0.1\nRANGE 1.0 1 3.0 0.1\n")
        with pytest.raises(ValueError, match="bad.log:2"):
            list(rio.read_log(path))

    def test_streaming_does_not_require_full_read(self, tmp_path):
        path = tmp_path / "a.log"
        lines = ["RANGE 1.0 0 3.0 0.1\n", "RANGE 2.0 oops\n"]
        path.write_text("".join(lines))
        it = rio.read_log(path)
        first = next(it)
        assert first.stamp == 1.0
        with pytest.raises(ValueError):
            next(it)


class TestCovariancePacking:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        cov = a @ a.T
        np.testing.assert_allclose(rio.unpack_upper(rio.pack_upper(cov)), cov, atol=1e-12)

    def test_pack_order_is_row_major_upper(self):
        cov = np.arange(36, dtype=float).reshape(6, 6)
        cov = 0.5 * (cov + cov.T)
        vals = rio.pack_upper(cov)
        assert vals[0] == cov[0, 0]
        assert vals[1] == cov[0, 1]
        assert vals[5] == cov[0, 5]
        assert vals[6] == cov[1, 1]
        assert vals[20] == cov[5, 5]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            rio.unpack_upper(np.zeros(20))


class TestTrajectoryFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        items = [(0.1 * k, random_pose(rng)) for k in range(25)]
        path = tmp_path / "traj.txt"
        rio.write_trajectory(path, items)
        back = rio.read_trajectory(path)
        assert len(back) == 25
        for (ts, pose), (tr, got) in zip(items, back):
            assert tr == pytest.approx(ts, abs=1e-9)
            np.testing.assert_allclose(got.position, pose.position, atol=1e-8)
            np.testing.assert_allclose(got.rotation, pose.rotation, atol=1e-7)

    def test_monotone_stamps_enforced(self, tmp_path):
        path = tmp_path / "traj.txt"
        line = "1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n"
        path.write_text(line)
        with pytest.raises(ValueError, match="monotone"):
            rio.read_trajectory(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, field):
        path = tmp_path / "traj.txt"
        path.write_text(f"0.0 0 0 0 0 0 0 1\n1.0 0 {field} 0 0 0 0 1\n")
        with pytest.raises(ValueError, match=r"traj.txt:2: non-finite value"):
            rio.read_trajectory(path)

    def test_non_unit_quaternion_reports_location(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0.0 0 0 0 0 0 0 1\n1.0 0 0 0 0 0 0 0.5\n")
        with pytest.raises(ValueError, match=r"traj.txt:2: quaternion norm"):
            rio.read_trajectory(path)

    def test_empty_trajectory(self, tmp_path):
        path = tmp_path / "traj.txt"
        rio.write_trajectory(path, [])
        assert path.read_text() == ""
        assert rio.read_trajectory(path) == []

    def test_quaternion_sign_is_canonical(self, tmp_path):
        pose = exp(np.array([0.0, 0, 0, 0, 0, 3.0]))
        path = tmp_path / "traj.txt"
        rio.write_trajectory(path, [(0.0, pose)])
        fields = path.read_text().split()
        assert float(fields[7]) >= 0.0


# The per-record conversions the stacked pair replaced, kept as the reference
# it must match bit for bit.
def ref_canonical_quaternion(q):
    for x in (q[3], q[0], q[1], q[2]):
        if x > 0.0:
            return np.array(q, dtype=float)
        if x < 0.0:
            return -np.array(q, dtype=float)
    raise ValueError("zero quaternion")


def ref_pose_to_parts(pose):
    quat = Rotation.from_matrix(pose.rotation).as_quat()
    return np.array(pose.position, dtype=float), ref_canonical_quaternion(quat)


def ref_parts_to_pose(position, quaternion):
    norm = float(np.linalg.norm(quaternion))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"quaternion norm {norm} outside unit tolerance")
    rot = Rotation.from_quat(np.asarray(quaternion, dtype=float) / norm).as_matrix()
    return Pose(rot, np.asarray(position, dtype=float))


def ref_unpack_upper(values):
    cov = np.zeros((6, 6))
    for (i, j), v in zip([(i, j) for i in range(6) for j in range(i, 6)], values):
        cov[i, j] = v
        cov[j, i] = v
    return cov


def bits(a):
    """Exact bit pattern of a float array, so -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).view(np.int64)


def awkward_quaternions():
    """w-last quaternions that exercise the sign rule and the norm tolerance."""
    s = np.sqrt(0.5)
    quats = [
        [0.0, 0.0, 1.0, 0.0],  # w = 0, x = 0, y = 0: z decides
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -s, s, 0.0],  # w = 0, x = 0: y decides
        [-s, 0.0, 0.0, -s],  # negative w
        [-0.0, -0.0, -1.0, -0.0],  # -0.0 components are zero
        [0.6, -0.0, 0.0, -0.8],
        [1.0, 0.0, 0.0, 1e-9],  # angle near pi
        [0.0, 1.0, 0.0, -1e-9],
        [-0.5, 0.5, -0.5, 0.5],
    ]
    rng = np.random.default_rng(11)
    for q in rng.normal(size=(40, 4)):
        quats.append(q / np.linalg.norm(q))
    return np.array(quats)


class TestStackedConversion:
    def poses(self, n, seed=0):
        rng = np.random.default_rng(seed)
        rots = Rotation.random(n, random_state=seed).as_matrix()
        out = [Pose(r, p) for r, p in zip(rots, rng.normal(size=(n, 3)))]
        near_pi = [exp(np.r_[rng.normal(size=3), axis * (np.pi - 1e-7)])
                   for axis in np.eye(3)]
        return near_pi + out + [Pose(Rotation.from_quat(q).as_matrix(), np.zeros(3))
                                for q in awkward_quaternions()]

    def test_encode_matches_per_record(self):
        poses = self.poses(300)
        positions, quats = rio.parts_from_poses(poses)
        for k, pose in enumerate(poses):
            pos, quat = ref_pose_to_parts(pose)
            assert np.array_equal(bits(positions[k]), bits(pos))
            assert np.array_equal(bits(quats[k]), bits(quat)), k

    def test_sign_rule_on_raw_quaternions(self, monkeypatch):
        quats = awkward_quaternions()
        # a NaN component is passed over like a zero, as the per-record rule did
        quats = np.vstack([quats, -quats, [[-0.5, 0.0, 0.0, np.nan], [np.nan, 0.5, 0.0, 0.0]]])
        # feed as_quat()'s output straight to the sign rule
        monkeypatch.setattr(Rotation, "as_quat", lambda self: quats.copy())
        _, got = rio.parts_from_poses([Pose.identity()] * len(quats))
        for q, g in zip(quats, got):
            assert np.array_equal(bits(g), bits(ref_canonical_quaternion(q)))

    def test_zero_quaternion_raises(self, monkeypatch):
        zero = np.array([[0.0, -0.0, 0.0, -0.0], [0.0, 0.0, 0.0, 1.0]])
        monkeypatch.setattr(Rotation, "as_quat", lambda self: zero.copy())
        with pytest.raises(ValueError, match="zero quaternion"):
            rio.parts_from_poses([Pose.identity()] * 2)
        with pytest.raises(ValueError, match="zero quaternion"):
            ref_canonical_quaternion(zero[0])

    def test_decode_matches_per_record(self):
        rng = np.random.default_rng(4)
        quats = awkward_quaternions()
        # norms up to 1 +- 0.9e-6 are inside the tolerance
        quats = quats * (1.0 + np.linspace(-0.9e-6, 0.9e-6, len(quats)))[:, None]
        positions = rng.normal(size=(len(quats), 3))
        poses = rio.poses_from_parts(positions, quats)
        for pos, q, pose in zip(positions, quats, poses):
            ref = ref_parts_to_pose(pos, q)
            assert np.array_equal(bits(pose.rotation), bits(ref.rotation))
            assert np.array_equal(bits(pose.position), bits(ref.position))

    def test_decode_rejects_norm_outside_tolerance(self):
        quats = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0 + 1.1e-6]])
        with pytest.raises(ValueError, match="quaternion norm"):
            rio.poses_from_parts(np.zeros((2, 3)), quats)

    def test_one_row_calls(self):
        pose = self.poses(1)[0]
        pos, quat = rio.pose_to_parts(pose)
        ref_pos, ref_quat = ref_pose_to_parts(pose)
        assert np.array_equal(bits(quat), bits(ref_quat))
        back = rio.parts_to_pose(pos, quat)
        ref = ref_parts_to_pose(ref_pos, ref_quat)
        assert np.array_equal(bits(back.rotation), bits(ref.rotation))

    def test_empty_blocks(self):
        positions, quats = rio.parts_from_poses([])
        assert positions.shape == (0, 3) and quats.shape == (0, 4)
        assert rio.poses_from_parts(np.zeros((0, 3)), np.zeros((0, 4))) == []
        assert list(rio.odometry_samples([])) == []

    def test_unpack_upper_matches_per_record(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(5, 21))
        values[0, 3] = -0.0
        stacked = rio.unpack_upper(values)
        assert stacked.shape == (5, 6, 6)
        for v, cov in zip(values, stacked):
            assert np.array_equal(bits(cov), bits(ref_unpack_upper(v)))
            assert np.array_equal(bits(rio.unpack_upper(v)), bits(cov))
            assert np.array_equal(bits(rio.pack_upper(cov)), bits(v))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_trajectory_at_chunk_edges(self, tmp_path, offset):
        n = rio.CHUNK + offset
        poses = self.poses(n - 3 - len(awkward_quaternions()), seed=offset + 2)
        assert len(poses) == n
        items = [(0.01 * k, pose) for k, pose in enumerate(poses)]
        path = tmp_path / "traj.txt"
        rio.write_trajectory(path, items)
        expected = "".join(
            " ".join(rio.FLOAT_FMT.format(float(v)) for v in (t, *pos, *quat)) + "\n"
            for t, (pos, quat) in ((t, ref_pose_to_parts(p)) for t, p in items)
        )
        assert path.read_text() == expected
        back = rio.read_trajectory(path)
        assert len(back) == n
        for line, (t, pose) in zip(expected.splitlines(), back):
            vals = [float(x) for x in line.split()]
            ref = ref_parts_to_pose(vals[1:4], vals[4:8])
            assert t == vals[0]
            assert np.array_equal(bits(pose.rotation), bits(ref.rotation))
            assert np.array_equal(bits(pose.position), bits(ref.position))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_odometry_samples_at_chunk_edges(self, offset):
        n = rio.CHUNK + offset
        rng = np.random.default_rng(offset + 5)
        records = []
        for k, pose in enumerate(self.poses(n - 3 - len(awkward_quaternions()))):
            pos, quat = ref_pose_to_parts(pose)
            cov = rng.normal(size=21) if k % 3 else None
            records.append(rio.OdomRecord(0.005 * k, pos, quat, cov, relative=False))
        default = np.eye(6) * 1e-4
        samples = list(rio.odometry_samples(records, default))
        assert len(samples) == n
        for rec, sample in zip(records, samples):
            ref = ref_parts_to_pose(rec.position, rec.quaternion)
            assert sample.stamp == rec.stamp
            assert np.array_equal(bits(sample.pose.mean.rotation), bits(ref.rotation))
            assert np.array_equal(bits(sample.pose.mean.position), bits(ref.position))
            if rec.cov_upper is None:
                assert sample.pose.cov is default
            else:
                assert np.array_equal(bits(sample.pose.cov), bits(ref_unpack_upper(rec.cov_upper)))

    def test_missing_covariance_names_the_record(self):
        quat = np.array([0.0, 0.0, 0.0, 1.0])
        records = [
            rio.OdomRecord(0.01 * k, np.zeros(3), quat,
                           None if k == rio.CHUNK + 7 else np.zeros(21), relative=False)
            for k in range(rio.CHUNK + 20)
        ]
        stamp = records[rio.CHUNK + 7].stamp
        samples = rio.odometry_samples(records)
        got = []
        with pytest.raises(ValueError, match=f"record at {stamp} has no covariance"):
            for sample in samples:
                got.append(sample)
        # every sample before the bad record is delivered first
        assert len(got) == rio.CHUNK + 7
        with pytest.raises(ValueError, match=f"record at {stamp} has no covariance"):
            next(rio.odometry_samples(records[rio.CHUNK + 7:]))
        assert len(list(rio.odometry_samples(records, np.eye(6)))) == rio.CHUNK + 20


class TestMetricsFile:
    def test_roundtrip_types(self, tmp_path):
        path = tmp_path / "metrics.txt"
        rio.write_metrics(path, {"rmse": 0.25, "count": 7, "mode": "full"})
        back = rio.read_metrics(path)
        assert back["rmse"] == pytest.approx(0.25)
        assert back["count"] == 7
        assert back["mode"] == "full"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        metrics = {"rmse": 1.0 / 3.0, "n": 3}
        rio.write_metrics(a, metrics)
        rio.write_metrics(b, dict(metrics))
        assert a.read_bytes() == b.read_bytes()


class TestConfigLoading:
    SCHEMA = {
        "seed": 7,
        "ufls": {"window": 1.0, "gate": 0.5, "lever_arm": [0.0, 0.0, 0.0]},
        "anchors": rio.REQUIRED,
    }

    def test_defaults_fill_missing(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("anchors: [1, 2]\nufls: {gate: 0.9}\n")
        cfg = rio.load_config(path, self.SCHEMA, env_prefix=None)
        assert cfg["seed"] == 7
        assert cfg["ufls"]["window"] == 1.0
        assert cfg["ufls"]["gate"] == 0.9
        assert cfg["anchors"] == [1, 2]

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("anchors: []\nufls: {gatee: 2.0}\n")
        with pytest.raises(ValueError, match="ufls.gatee"):
            rio.load_config(path, self.SCHEMA, env_prefix=None)

    def test_missing_required_named(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 3\n")
        with pytest.raises(ValueError, match="anchors"):
            rio.load_config(path, self.SCHEMA, env_prefix=None)

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "c.yaml"
        path.write_text("anchors: []\n")
        monkeypatch.setenv("RALOC_UFLS_GATE", "1.25")
        monkeypatch.setenv("RALOC_SEED", "99")
        cfg = rio.load_config(path, self.SCHEMA)
        assert cfg["ufls"]["gate"] == 1.25
        assert cfg["seed"] == 99

    def test_env_override_nested_underscore_key(self, tmp_path, monkeypatch):
        path = tmp_path / "c.yaml"
        path.write_text("anchors: []\n")
        monkeypatch.setenv("RALOC_UFLS_LEVER_ARM", "[0.1, 0.0, 0.2]")
        cfg = rio.load_config(path, self.SCHEMA)
        assert cfg["ufls"]["lever_arm"] == [0.1, 0.0, 0.2]

    def test_env_override_section_name_with_underscore(self, tmp_path, monkeypatch):
        # scenario sections odom_noise and odom_drift contain "_" themselves
        path = tmp_path / "s.yaml"
        path.write_text("waypoints: [[0, 0, 1], [1, 0, 1]]\nanchors: []\n")
        monkeypatch.setenv("RALOC_ODOM_NOISE_TRANS", "0.5")
        monkeypatch.setenv("RALOC_ODOM_DRIFT_YAW", "0.01")
        monkeypatch.setenv("RALOC_RANGE_RATE", "20.0")
        cfg = rio.load_config(path, SCENARIO_SCHEMA)
        assert cfg["odom_noise"] == {"trans": 0.5, "rot": 0.0}
        assert cfg["odom_drift"]["yaw"] == 0.01
        assert cfg["range_rate"] == 20.0
