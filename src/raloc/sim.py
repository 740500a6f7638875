"""Deterministic sensor simulator and reference batch solution.

Generates a smooth trajectory through waypoints, then synthesizes the two
sensor streams the estimator consumes: round-robin anchor ranges (with
optional per-anchor bias, Gaussian noise, and labeled NLOS spikes) and
drifting odometry in a local frame anchored at the first pose. All
randomness flows from one seeded generator with a fixed draw order, so a
scenario reproduces byte-identical datasets.

``batch_oracle`` solves the whole dataset as one factor graph with no
marginalization, giving the reference answer that windowed estimation is
measured against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import io as rio
from .factors import Anchor, LeverArm, OdometryFactor, PriorFactor, RangeMeasurement
from .lie import Pose, PoseWithCovariance, exp
from .preintegration import accumulate, shadow_sample
from .solver import FactorGraph, SolveReport, SolverOptions, VariableKey, optimize
from .ufls import bootstrap_prior, range_factor

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline


def box_anchors(extent=(7.0, 8.0, 3.5)) -> list[Anchor]:
    """Eight anchors at the corners of an axis-aligned volume."""
    ex, ey, ez = extent
    corners = [
        (x, y, z) for z in (0.0, ez) for y in (0.0, ey) for x in (0.0, ex)
    ]
    return [Anchor(i, np.array(c)) for i, c in enumerate(corners)]


ANCHORS_SMALL = box_anchors((7.0, 8.0, 3.5))
ANCHORS_ROOM = box_anchors((10.0, 10.0, 5.0))

WAYPOINTS_SMALL = np.array(
    [
        [1.2, 1.2, 1.0],
        [5.8, 1.5, 1.4],
        [5.5, 6.8, 1.8],
        [3.5, 6.5, 2.4],
        [1.4, 6.6, 1.6],
        [1.0, 3.5, 1.2],
        [1.2, 1.2, 1.0],
    ]
)

WAYPOINTS_ROOM = np.array(
    [
        [1.5, 1.5, 1.5],
        [8.5, 1.8, 2.0],
        [8.2, 8.5, 2.8],
        [5.0, 8.2, 3.4],
        [1.8, 8.4, 2.2],
        [1.5, 5.0, 1.8],
        [1.5, 1.5, 1.5],
    ]
)


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(3, float(arr))
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a scalar or 3-vector")
    return arr


@dataclass
class Scenario:
    """Everything needed to reproduce one simulated dataset.

    Noise entries are densities per sqrt(second); drift entries are constant
    rates composed into the odometry increments. ``bias_map`` assigns a
    constant range bias in meters to chosen anchor ids; ``nlos_fraction``
    independently turns each range into a positive spike of
    ``nlos_magnitude`` meters.
    """

    seed: int
    anchors: list
    waypoints: np.ndarray
    speed: float = 1.0
    duration: float = 30.0
    range_rate: float = 17.0
    odom_rate: float = 200.0
    range_sigma: float = 0.1
    odom_noise_trans: np.ndarray = 0.0
    odom_noise_rot: np.ndarray = 0.0
    odom_drift_trans: np.ndarray = field(default_factory=lambda: np.zeros(3))
    odom_drift_yaw: float = 0.0
    bias_map: dict = field(default_factory=dict)
    nlos_fraction: float = 0.0
    nlos_magnitude: float = 2.0
    lever_arm: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        self.odom_noise_trans = _as_vec3(self.odom_noise_trans, "odom_noise_trans")
        self.odom_noise_rot = _as_vec3(self.odom_noise_rot, "odom_noise_rot")
        self.odom_drift_trans = _as_vec3(self.odom_drift_trans, "odom_drift_trans")
        self.lever_arm = np.asarray(self.lever_arm, dtype=float)
        self.bias_map = {int(k): float(v) for k, v in self.bias_map.items()}
        if self.speed <= 0.0:
            raise ValueError("speed must be positive")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.range_rate <= 0.0 or self.odom_rate <= 0.0:
            raise ValueError("range_rate and odom_rate must be positive")
        if self.range_sigma < 0.0:
            raise ValueError("range_sigma must not be negative")
        if not (0.0 <= self.nlos_fraction <= 1.0):
            raise ValueError("nlos_fraction must lie in [0, 1]")
        ids = [a.id for a in self.anchors]
        if len(set(ids)) != len(ids):
            raise ValueError("anchor ids must be unique")
        unknown = set(self.bias_map) - set(ids)
        if unknown:
            raise ValueError(f"bias_map names unknown anchors {sorted(unknown)}")


class Trajectory:
    """Smooth constant-speed path sampled on a fixed stamp grid.

    ``pose_at`` evaluates the underlying time spline exactly at any stamp
    in [0, duration]; yaw tracks the horizontal velocity direction.
    """

    def __init__(self, spline: CubicSpline, duration: float, rate: float):
        self._spline = spline
        self.duration = duration
        n = int(round(duration * rate))
        self.stamps = np.arange(n + 1) / rate
        positions = np.asarray(spline(self.stamps))
        velocities = np.asarray(spline(self.stamps, 1))
        yaws = np.arctan2(velocities[:, 1], velocities[:, 0])
        degenerate = np.hypot(velocities[:, 0], velocities[:, 1]) <= 1e-9
        for i in np.nonzero(degenerate)[0]:
            yaws[i] = self._yaw_at(float(self.stamps[i]))
        c, s = np.cos(yaws), np.sin(yaws)
        self.poses = [
            Pose(
                np.array([[c[k], -s[k], 0.0], [s[k], c[k], 0.0], [0.0, 0.0, 1.0]]),
                positions[k],
            )
            for k in range(n + 1)
        ]

    def position_at(self, t: float) -> np.ndarray:
        return np.asarray(self._spline(t), dtype=float)

    def velocity_at(self, t: float) -> np.ndarray:
        return np.asarray(self._spline(t, 1), dtype=float)

    def pose_at(self, t: float) -> Pose:
        if not (-1e-9 <= t <= self.duration + 1e-9):
            raise ValueError(f"stamp {t} outside [0, {self.duration}]")
        pos = self.position_at(t)
        yaw = self._yaw_at(t)
        c, s = np.cos(yaw), np.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return Pose(rot, pos)

    def _yaw_at(self, t: float) -> float:
        # walk backwards out of (rare) zero-horizontal-velocity points so
        # the heading stays defined and deterministic
        for back in range(8):
            v = self.velocity_at(max(t - 0.05 * back, 0.0))
            if np.hypot(v[0], v[1]) > 1e-9:
                return float(np.arctan2(v[1], v[0]))
        return 0.0


def generate_trajectory(
    waypoints: np.ndarray, speed: float, duration: float, rate: float = 200.0
) -> Trajectory:
    """Constant-speed spline through waypoints, sampled at ``rate``.

    A closed path (last waypoint equals the first) is traversed cyclically,
    so any duration works; an open path must be long enough to cover
    ``speed * duration``. Consecutive duplicate waypoints are rejected.
    """
    # imported here: only the simulator needs it, and it is slow to import
    from scipy.interpolate import CubicSpline

    waypoints = np.atleast_2d(np.asarray(waypoints, dtype=float))
    if waypoints.shape[0] < 2 or waypoints.shape[1] != 3:
        raise ValueError("need at least two 3-d waypoints")
    chords = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
    if np.any(chords < 1e-9):
        raise ValueError("consecutive duplicate waypoints make the path degenerate")
    closed = bool(np.allclose(waypoints[0], waypoints[-1], atol=1e-9))
    if closed and waypoints.shape[0] < 4:
        raise ValueError("a closed path needs at least three distinct waypoints")

    u_knots = np.concatenate([[0.0], np.cumsum(chords)])
    bc = "periodic" if closed else "natural"
    path = CubicSpline(u_knots, waypoints, axis=0, bc_type=bc)

    # arc length table on a dense grid, then invert to get u(s)
    n_dense = min(max(400 * (len(u_knots) - 1), 2000), 40000)
    u_dense = np.linspace(0.0, u_knots[-1], n_dense)
    speed_dense = np.linalg.norm(path(u_dense, 1), axis=1)
    s_dense = np.concatenate(
        [[0.0], np.cumsum(0.5 * (speed_dense[1:] + speed_dense[:-1]) * np.diff(u_dense))]
    )
    length = float(s_dense[-1])
    needed = speed * duration
    if not closed and needed > length + 1e-9:
        raise ValueError(
            f"open path is {length:.3f} m but {needed:.3f} m are needed; "
            "close the loop or shorten the run"
        )

    # resample at equal arc-length steps and refit against time, which makes
    # position twice differentiable in t with near-constant speed
    dt_knot = min(0.05, duration / 8.0)
    n_knot = int(np.ceil(duration / dt_knot))
    t_knots = np.linspace(0.0, duration, n_knot + 1)
    s_knots = speed * t_knots
    if closed:
        s_knots = np.mod(s_knots, length)
    u_t = np.interp(s_knots, s_dense, u_dense)
    points = path(u_t)
    return Trajectory(CubicSpline(t_knots, points, axis=0, bc_type="natural"), duration, rate)


@dataclass
class SimulatedDataset:
    """Sensor streams plus the hidden truth that produced them."""

    scenario: Scenario
    ranges: list
    nlos: np.ndarray
    odometry: list
    truth: list
    offsets: list

    def merged_records(self):
        """RANGE and ODOM records in stamp order, odometry first at ties."""
        odom = ((r.stamp, 0, i, r) for i, r in enumerate(self.odometry))
        rng = ((r.stamp, 1, i, r) for i, r in enumerate(self.ranges))
        for _, _, _, rec in heapq.merge(odom, rng):
            yield rec


def simulate(scenario: Scenario) -> SimulatedDataset:
    """Synthesize one dataset from a scenario, deterministically.

    Draw order is fixed (odometry noise, then range noise, then NLOS
    indicators), so datasets differing only in e.g. the bias map share the
    same noise realization.
    """
    sc = scenario
    traj = generate_trajectory(sc.waypoints, sc.speed, sc.duration, sc.odom_rate)
    rng = np.random.default_rng(sc.seed)
    stamps = traj.stamps
    poses = traj.poses
    n = len(stamps)
    dt = 1.0 / sc.odom_rate

    step_sigma = np.concatenate(
        [sc.odom_noise_trans * np.sqrt(dt), sc.odom_noise_rot * np.sqrt(dt)]
    )
    noise = rng.normal(size=(n - 1, 6)) * step_sigma
    n_ranges = int(np.floor(sc.duration * sc.range_rate + 1e-9)) + 1
    range_noise = rng.normal(size=n_ranges) * sc.range_sigma
    nlos_draw = rng.random(size=n_ranges) < sc.nlos_fraction

    drift_xi = np.concatenate(
        [sc.odom_drift_trans * dt, [0.0, 0.0, sc.odom_drift_yaw * dt]]
    )
    step_cov = rio.pack_upper(np.diag(step_sigma**2))
    odom_poses = [Pose.identity()]
    for k in range(1, n):
        inc = poses[k - 1].inverse() @ poses[k]
        odom_poses.append(odom_poses[-1] @ inc @ exp(drift_xi + noise[k - 1]))
    positions, quats = rio.parts_from_poses(odom_poses)
    odometry = [
        rio.OdomRecord(
            float(stamps[k]),
            positions[k],
            quats[k],
            cov_upper=np.zeros(21) if k == 0 else step_cov,
            relative=False,
        )
        for k in range(n)
    ]

    sigma_line = sc.range_sigma if sc.range_sigma > 0.0 else 1e-3
    anchors = sc.anchors
    arm = sc.lever_arm
    ranges = []
    for j in range(n_ranges):
        t = j / sc.range_rate
        anchor = anchors[j % len(anchors)]
        pose = traj.pose_at(t)
        antenna = pose.position + pose.rotation @ arm
        dist = float(np.linalg.norm(anchor.position - antenna))
        z = dist + sc.bias_map.get(anchor.id, 0.0) + float(range_noise[j])
        if nlos_draw[j]:
            z += sc.nlos_magnitude
        ranges.append(rio.RangeRecord(float(t), anchor.id, z, sigma_line))

    truth = [(float(stamps[k]), poses[k]) for k in range(n)]
    offsets = [
        (float(stamps[k]), poses[k] @ odom_poses[k].inverse()) for k in range(n)
    ]
    return SimulatedDataset(sc, ranges, nlos_draw, odometry, truth, offsets)


def write_dataset(dataset: SimulatedDataset, out_dir) -> None:
    """Write the sensor log plus truth sidecars into a directory.

    ``dataset.log`` holds what the estimator may see; ground truth, true
    frame offsets, NLOS labels, and true biases go to separate files.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rio.write_log(out_dir / "dataset.log", dataset.merged_records())
    for name, stamped in (
        ("ground_truth.log", dataset.truth),
        ("true_offsets.log", dataset.offsets),
    ):
        positions, quats = rio.parts_from_poses([pose for _, pose in stamped])
        rio.write_log(
            out_dir / name,
            (rio.GtRecord(t, pos, quat) for (t, _), pos, quat in zip(stamped, positions, quats)),
        )
    with open(out_dir / "nlos_labels.txt", "w", encoding="utf-8") as handle:
        for j, (rec, flag) in enumerate(zip(dataset.ranges, dataset.nlos)):
            handle.write(
                f"{j} {rio.FLOAT_FMT.format(rec.stamp)} {rec.anchor_id} {int(flag)}\n"
            )
    with open(out_dir / "true_biases.txt", "w", encoding="utf-8") as handle:
        for anchor in dataset.scenario.anchors:
            bias = dataset.scenario.bias_map.get(anchor.id, 0.0)
            handle.write(f"{anchor.id} {rio.FLOAT_FMT.format(bias)}\n")


def read_nlos_labels(path) -> list[tuple[int, float, int, bool]]:
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            idx, stamp, anchor_id, flag = line.split()
            out.append((int(idx), float(stamp), int(anchor_id), flag == "1"))
    return out


@dataclass
class BatchSolution:
    stamps: np.ndarray
    poses: list
    biases: dict
    report: SolveReport


ORACLE_OPTIONS = SolverOptions(max_iters=200, rel_cost_tol=1e-12, abs_step_tol=1e-12)


def batch_oracle(
    range_records: list,
    odom_records: list,
    anchors: list,
    mode: str = "const_bias",
    tick_rate: float = 5.0,
    lever_arm: np.ndarray | None = None,
    initial_pose: PoseWithCovariance | None = None,
    range_sigma: float | None = None,
    default_odom_cov: np.ndarray | None = None,
    options: SolverOptions = ORACLE_OPTIONS,
) -> BatchSolution:
    """Full-graph reference solution: every tick state, no marginalization.

    ``const_bias`` estimates one bias per anchor across the whole run;
    ``no_bias`` holds each anchor's bias at its prior mean. Ranges attach to
    the nearest tick state through ``ufls.range_factor``, as in the online
    smoother. The first state gets a prior from ``initial_pose``; when
    omitted, ``ufls.bootstrap_prior`` on the earliest range per anchor
    stands in.
    """
    if mode not in ("const_bias", "no_bias"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if not odom_records:
        raise ValueError("no odometry records")
    relative = odom_records[0].relative
    if any(rec.relative != relative for rec in odom_records):
        raise ValueError("odometry stream mixes absolute and relative records")
    samples = list(rio.odometry_samples(odom_records, default_odom_cov))
    shadow = []
    for sample in samples:
        shadow.append(shadow_sample(shadow[-1] if shadow else None, sample, relative))
    anchor_by_id = {a.id: a for a in anchors}
    arm = LeverArm(np.zeros(3) if lever_arm is None else np.asarray(lever_arm, dtype=float))
    measurements = []
    for rec in range_records:
        if rec.anchor_id not in anchor_by_id:
            raise ValueError(f"range names unknown anchor {rec.anchor_id}")
        sigma = range_sigma if range_sigma is not None else rec.sigma_m
        measurements.append(RangeMeasurement(rec.stamp, rec.anchor_id, rec.range_m, sigma))

    # in relative mode the first record's span precedes the stream start, and
    # accumulate() drops it at the initial cut
    t0 = samples[0].stamp
    t_end = samples[-1].stamp
    n_ticks = int(np.floor((t_end - t0) * tick_rate + 1e-9))
    ticks = t0 + np.arange(n_ticks + 1) / tick_rate
    spans = accumulate(samples, list(ticks), relative=relative)

    if initial_pose is None:
        earliest = {}
        for z in measurements:
            earliest.setdefault(z.anchor_id, z)
        initial_pose = bootstrap_prior(earliest.values(), anchor_by_id, shadow, t0)
    if initial_pose is None:
        # fewer than 4 known anchors: a loose identity prior is all there is
        initial_pose = PoseWithCovariance(
            Pose.identity(), np.diag([100.0] * 3 + [10.0] * 3)
        )
    graph = FactorGraph()
    pose_keys = []
    value = initial_pose.mean
    for i, t in enumerate(ticks):
        key = VariableKey.pose(i, float(t))
        if i > 0:
            value = value @ spans[i - 1].delta
        graph.add_variable(key, value)
        pose_keys.append(key)
    graph.add_factor(PriorFactor(pose_keys[0], initial_pose.mean, initial_pose.cov))
    for i, span in enumerate(spans):
        graph.add_factor(OdometryFactor(pose_keys[i], pose_keys[i + 1], span))

    bias_keys = {}
    for z in measurements:
        anchor = anchor_by_id[z.anchor_id]
        idx = int(np.clip(round((z.stamp - t0) * tick_rate), 0, n_ticks))
        bkey = bias_keys.get(z.anchor_id)
        if bkey is None and mode == "const_bias":
            bkey = VariableKey.bias(z.anchor_id, 0)
            bias_keys[z.anchor_id] = bkey
            graph.add_variable(bkey, anchor.bias_prior_mean)
            graph.add_factor(
                PriorFactor(bkey, anchor.bias_prior_mean, anchor.bias_prior_sigma**2)
            )
        graph.add_factor(range_factor(pose_keys[idx], bkey, z, anchor, arm, shadow))

    report = optimize(graph, options)
    poses = [graph.values[k] for k in pose_keys]
    biases = {aid: float(graph.values[k]) for aid, k in bias_keys.items()}
    return BatchSolution(ticks, poses, biases, report)


SCENARIO_SCHEMA = {
    "seed": 0,
    "duration": 30.0,
    "speed": 1.0,
    "waypoints": rio.REQUIRED,
    "anchors": rio.REQUIRED,
    "range_rate": 17.0,
    "odom_rate": 200.0,
    "range_sigma": 0.1,
    "odom_noise": {"trans": 0.0, "rot": 0.0},
    "odom_drift": {"trans": [0.0, 0.0, 0.0], "yaw": 0.0},
    "bias_map": rio.FREEFORM,
    "nlos": {"fraction": 0.0, "magnitude": 2.0},
    "lever_arm": [0.0, 0.0, 0.0],
}

_ANCHOR_KEYS = {"id", "position", "bias_prior_mean", "bias_prior_sigma"}


def anchors_from_config(entries) -> list[Anchor]:
    if not isinstance(entries, list) or not entries:
        raise ValueError("anchors must be a non-empty list of mappings")
    anchors = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"anchors[{i}] must be a mapping")
        unknown = set(entry) - _ANCHOR_KEYS
        if unknown:
            raise ValueError(f"anchors[{i}] has unknown keys {sorted(unknown)}")
        if "id" not in entry or "position" not in entry:
            raise ValueError(f"anchors[{i}] needs 'id' and 'position'")
        position = np.asarray(entry["position"], dtype=float)
        if position.shape != (3,):
            raise ValueError(f"anchors[{i}].position must be a 3-vector")
        anchors.append(
            Anchor(
                int(entry["id"]),
                position,
                float(entry.get("bias_prior_mean", 0.0)),
                float(entry.get("bias_prior_sigma", 0.2)),
            )
        )
    return anchors


def scenario_from_config(cfg: dict) -> Scenario:
    """Build a scenario from a config mapping validated by SCENARIO_SCHEMA."""
    return Scenario(
        seed=int(cfg["seed"]),
        anchors=anchors_from_config(cfg["anchors"]),
        waypoints=np.asarray(cfg["waypoints"], dtype=float),
        speed=float(cfg["speed"]),
        duration=float(cfg["duration"]),
        range_rate=float(cfg["range_rate"]),
        odom_rate=float(cfg["odom_rate"]),
        range_sigma=float(cfg["range_sigma"]),
        odom_noise_trans=cfg["odom_noise"]["trans"],
        odom_noise_rot=cfg["odom_noise"]["rot"],
        odom_drift_trans=cfg["odom_drift"]["trans"],
        odom_drift_yaw=float(cfg["odom_drift"]["yaw"]),
        bias_map=cfg["bias_map"] or {},
        nlos_fraction=float(cfg["nlos"]["fraction"]),
        nlos_magnitude=float(cfg["nlos"]["magnitude"]),
        lever_arm=np.asarray(cfg["lever_arm"], dtype=float),
    )


def preset_scenario(name: str = "small", seed: int = 0, **overrides) -> Scenario:
    """Canned scenarios: ``small`` (7x8x3.5 m) and ``room`` (10x10x5 m).

    Defaults carry nominal noise and drift; keyword overrides replace any
    Scenario field.
    """
    presets = {
        "small": (ANCHORS_SMALL, WAYPOINTS_SMALL),
        "room": (ANCHORS_ROOM, WAYPOINTS_ROOM),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}, expected one of {sorted(presets)}")
    anchors, waypoints = presets[name]
    base = dict(
        seed=seed,
        anchors=list(anchors),
        waypoints=waypoints.copy(),
        speed=1.0,
        duration=60.0,
        range_sigma=0.1,
        odom_noise_trans=0.01,
        odom_noise_rot=0.002,
        odom_drift_trans=np.array([0.010, -0.008, 0.004]),
        odom_drift_yaw=0.002,
    )
    base.update(overrides)
    return Scenario(**base)
