"""Command line front end: simulate, estimate, batch, evaluate.

``simulate`` writes a synthetic dataset (sensor log plus truth sidecars)
into a directory. ``estimate`` replays a sensor log through the range-aided
smoother and the offset smoother, writing the corrected trajectory, the
smoothed anchor-frame trajectory, the frame-offset series, the bias traces,
and a run summary, all under one output prefix. ``batch`` solves the whole
log as a single factor graph, the reference the online estimator is judged
against. ``evaluate`` compares an estimated trajectory with a reference and
reports error and smoothness metrics.

Exit codes: 0 on success, 1 on usage or configuration errors, 2 when
estimation diverges or fails to initialize, 3 on I/O errors. Output files
are deterministic: rerunning a command with the same inputs reproduces them
byte for byte, so run timing goes to stderr, never into files.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import io as rio
from . import sim
from .factors import RangeMeasurement
from .lie import Pose, PoseWithCovariance
from .preintegration import OdometrySample, default_covariance
from .solver import SingularSystem
from .ufls import Ufls, UflsConfig, offset_position_measurement
from .wfls import Wfls, WflsConfig

MODES = ("full", "no-bias", "no-wnoa", "ufls-only")


def _yaml_defaults(config_class) -> dict:
    """Defaults of every config-file key of an estimator config dataclass.

    ``relative_odometry`` comes from the log and ``solver`` is not
    configurable, so neither is a key.
    """
    out = {}
    for f in fields(config_class):
        if f.name in ("relative_odometry", "solver"):
            continue
        value = f.default if f.default_factory is MISSING else f.default_factory()
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


ESTIMATOR_SCHEMA = {
    "anchors": rio.REQUIRED,
    "ufls": _yaml_defaults(UflsConfig),
    "wfls": _yaml_defaults(WflsConfig),
    "odometry": {"default_sigma": None},
}


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 1."""


class EstimationDiverged(Exception):
    """The estimator lost the solution; maps to exit code 2."""


def _ufls_config(cfg: dict, mode: str) -> UflsConfig:
    u = cfg["ufls"]
    return UflsConfig(**{**u, "bias_estimation": u["bias_estimation"] and mode != "no-bias"})


def _wfls_config(cfg: dict) -> WflsConfig:
    return WflsConfig(**cfg["wfls"])


def _default_odom_cov(cfg: dict) -> np.ndarray | None:
    sigma = cfg["odometry"]["default_sigma"]
    return None if sigma is None else default_covariance(sigma)


def read_dataset(path) -> list:
    """Sensor log records in stamp order; rejects files carrying ground truth."""
    records = list(rio.read_log(path))
    if any(isinstance(rec, rio.GtRecord) for rec in records):
        raise ValueError(f"{path}: contains GT records; pass the sensor log, not truth")
    if not any(isinstance(rec, rio.OdomRecord) for rec in records):
        raise ValueError(f"{path}: no odometry records")
    return records


@dataclass
class PipelineResult:
    """Everything one estimation replay produces."""

    estimates: list = field(default_factory=list)
    ufls_trajectory: list = field(default_factory=list)
    corrected: list = field(default_factory=list)
    offsets: list = field(default_factory=list)
    bias_rows: list = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0
    flag_counts: dict = field(default_factory=dict)
    update_seconds: list = field(default_factory=list)


def run_pipeline(
    records: list,
    anchors: list,
    ufls_config: UflsConfig,
    wfls_config: WflsConfig,
    mode: str = "full",
    default_odom_cov: np.ndarray | None = None,
) -> PipelineResult:
    """Replay a sensor log through the estimator stack.

    The replay honors the real-time contract: an estimator tick at stamp t
    fires as soon as the first odometry sample at or past t has arrived,
    before any later record is ingested, and a record stamped exactly on a
    tick is ingested first. Corrected poses are emitted per odometry sample
    using whatever offset is current at that moment; in ``ufls-only`` mode
    they are the tick-rate smoother heads instead. The offset series is
    sampled on the offset smoother's own tick grid (zero-order hold of the
    raw offsets when the motion prior is disabled in ``no-wnoa`` mode).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    use_wfls = mode in ("full", "no-bias")

    odom_records = [rec for rec in records if isinstance(rec, rio.OdomRecord)]
    if not odom_records:
        raise ValueError("no odometry records")
    relative = odom_records[0].relative
    ufls_config = replace(ufls_config, relative_odometry=relative)
    ufls = Ufls(ufls_config, anchors)
    wfls = Wfls(wfls_config) if use_wfls else None
    wfls_has_data = False

    result = PipelineResult()
    u_dt = 1.0 / ufls_config.update_rate
    w_dt = 1.0 / wfls_config.update_rate
    t0 = odom_records[0].stamp
    next_utick: float | None = None
    next_wtick: float | None = None
    u_count = 0
    w_count = 0
    last_odom: float | None = None
    odom_abs = Pose.identity()
    zoh_offset: Pose | None = None

    def bump_flags(flags) -> None:
        for flag in flags:
            result.flag_counts[flag] = result.flag_counts.get(flag, 0) + 1

    def do_utick(t: float) -> None:
        nonlocal zoh_offset, wfls_has_data
        start = time.perf_counter()
        try:
            est = ufls.update(t)
        except SingularSystem as err:
            raise EstimationDiverged(f"update at {t:.3f} s: {err}") from None
        result.update_seconds.append(time.perf_counter() - start)
        if est is None:
            return
        result.estimates.append(est)
        bump_flags(est.flags)
        if "diverged" in est.flags:
            raise EstimationDiverged(f"non-finite cost at update {t:.3f} s")
        for aid in sorted(est.biases):
            mean, sigma = est.biases[aid]
            result.bias_rows.append((t, aid, mean, sigma))
        if use_wfls:
            y, cov3, rot = offset_position_measurement(ufls.frame_offset(est))
            if wfls.ingest_offset(est.stamp, y, cov3, rot):
                wfls_has_data = True
        elif mode == "no-wnoa":
            zoh_offset = ufls.frame_offset(est).mean
        elif mode == "ufls-only":
            result.offsets.append((t, ufls.frame_offset(est).mean))
            result.corrected.append((t, est.pose.mean))

    def do_wtick(t: float) -> None:
        if use_wfls:
            if not wfls_has_data:
                return
            out = wfls.update(t)
            result.offsets.append((t, Pose(out.rotation, out.sample.position)))
        elif zoh_offset is not None:
            result.offsets.append((t, zoh_offset))

    def fire(limit: float) -> None:
        """Run every due tick up to ``limit``, oldest first, pose tick at ties."""
        nonlocal next_utick, next_wtick, u_count, w_count
        while True:
            tu = next_utick if next_utick is not None and next_utick <= limit else None
            tw = None
            if mode != "ufls-only":
                if next_wtick is not None and next_wtick <= limit:
                    tw = next_wtick
            if tu is None and tw is None:
                return
            if tw is None or (tu is not None and tu <= tw + 1e-12):
                do_utick(tu)
                u_count += 1
                next_utick = t0 + u_count * u_dt
            else:
                do_wtick(tw)
                w_count += 1
                next_wtick = t0 + w_count * w_dt

    samples = rio.odometry_samples(odom_records, default_odom_cov)
    for rec in records:
        horizon = -np.inf if last_odom is None else last_odom
        fire(min(rec.stamp - 1e-6, horizon))
        if isinstance(rec, rio.OdomRecord):
            if rec.relative != relative:
                raise ValueError("odometry stream mixes absolute and relative records")
            sample = next(samples)
            if not ufls.ingest_odometry(sample):
                continue
            pose = sample.pose.mean
            odom_abs = odom_abs @ pose if relative else pose
            last_odom = rec.stamp
            if next_utick is None:
                next_utick = t0
                next_wtick = t0
            if use_wfls:
                out = wfls.correct(
                    OdometrySample(rec.stamp, PoseWithCovariance(odom_abs, np.zeros((6, 6))))
                )
                if out.aligned:
                    result.corrected.append((rec.stamp, out.pose))
            elif mode == "no-wnoa" and zoh_offset is not None:
                result.corrected.append((rec.stamp, zoh_offset @ odom_abs))
        else:
            z = RangeMeasurement(rec.stamp, rec.anchor_id, rec.range_m, rec.sigma_m)
            if ufls.ingest_range(z):
                result.accepted += 1
            else:
                result.rejected += 1
    if last_odom is not None:
        fire(last_odom)

    result.ufls_trajectory = ufls.smoothed_trajectory()
    return result


def _write_biases(path, rows) -> None:
    """Bias traces, one line per anchor per update: stamp id mean sigma."""
    with open(path, "w", encoding="utf-8") as handle:
        for stamp, aid, mean, sigma in rows:
            handle.write(
                f"{rio.FLOAT_FMT.format(stamp)} {aid} "
                f"{rio.FLOAT_FMT.format(mean)} {rio.FLOAT_FMT.format(sigma)}\n"
            )


def _read_poses(path) -> list[tuple[float, Pose]]:
    """Stamped poses from either a plain trajectory file or a GT log."""
    with open(path, "r", encoding="utf-8") as handle:
        first = ""
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                first = line.split()[0]
                break
    if first in ("GT", "ODOM", "RANGE"):
        truth = [rec for rec in rio.read_log(path) if isinstance(rec, rio.GtRecord)]
        if not truth:
            raise ValueError(f"{path}: log carries no GT records")
        poses = rio.poses_from_parts(
            [rec.position for rec in truth], [rec.quaternion for rec in truth]
        )
        return [(rec.stamp, pose) for rec, pose in zip(truth, poses)]
    return rio.read_trajectory(path)


def nearest_pairs(
    stamps: np.ndarray, ref_stamps: np.ndarray, max_gap: float
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of each stamp and its nearest reference stamp, where within ``max_gap``.

    One ``searchsorted`` over all stamps; an equidistant stamp pairs with the
    earlier reference.
    """
    j = np.clip(np.searchsorted(ref_stamps, stamps), 1, len(ref_stamps) - 1)
    j = np.where(np.abs(ref_stamps[j] - stamps) < np.abs(ref_stamps[j - 1] - stamps), j, j - 1)
    near = np.flatnonzero(np.abs(ref_stamps[j] - stamps) <= max_gap)
    return near, j[near]


def trajectory_metrics(
    estimated: list[tuple[float, Pose]],
    reference: list[tuple[float, Pose]],
    align: str = "none",
    max_gap: float = 0.010,
) -> dict:
    """Position error and smoothness of a trajectory against a reference.

    Pairs are formed by nearest reference stamp within ``max_gap`` seconds.
    ``first-pose`` alignment moves the estimate by the rigid transform that
    maps its first paired pose onto the reference. Smoothness is the largest
    second finite difference of the estimated positions, a measure of jitter
    that ignores any constant offset or drift.
    """
    if align not in ("none", "first-pose"):
        raise ValueError(f"unknown alignment {align!r}")
    if not estimated or not reference:
        raise ValueError("empty trajectory")
    est_idx, ref_idx = nearest_pairs(
        np.array([t for t, _ in estimated]), np.array([t for t, _ in reference]), max_gap
    )
    pairs = [(estimated[i][1], reference[j][1]) for i, j in zip(est_idx, ref_idx)]
    if not pairs:
        raise ValueError(f"no stamps pair up within {max_gap * 1e3:.0f} ms")
    if align == "first-pose":
        est0, ref0 = pairs[0]
        transform = ref0 @ est0.inverse()
        pairs = [(transform @ est, ref) for est, ref in pairs]
    err = np.array([est.position - ref.position for est, ref in pairs])
    per_axis = np.sqrt(np.mean(err**2, axis=0))
    norms = np.linalg.norm(err, axis=1)
    positions = np.array([pose.position for _, pose in estimated])
    if len(positions) >= 3:
        second = positions[2:] - 2.0 * positions[1:-1] + positions[:-2]
        smoothness = float(np.max(np.linalg.norm(second, axis=1)))
    else:
        smoothness = 0.0
    return {
        "pairs": len(pairs),
        "rmse": float(np.sqrt(np.mean(norms**2))),
        "rmse_x": float(per_axis[0]),
        "rmse_y": float(per_axis[1]),
        "rmse_z": float(per_axis[2]),
        "max_error": float(np.max(norms)),
        "smoothness": smoothness,
    }


def _prefixed(prefix: str, name: str) -> Path:
    path = Path(prefix + name)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(args) -> int:
    if args.scenario is not None:
        cfg = rio.load_config(args.scenario, sim.SCENARIO_SCHEMA)
        scenario = sim.scenario_from_config(cfg)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
    else:
        scenario = sim.preset_scenario(args.preset, seed=args.seed or 0)
    dataset = sim.simulate(scenario)
    out_dir = Path(args.out)
    sim.write_dataset(dataset, out_dir)
    print(
        f"wrote {out_dir}: {len(dataset.odometry)} odometry records, "
        f"{len(dataset.ranges)} ranges ({int(dataset.nlos.sum())} nlos), "
        f"{scenario.duration:g} s, {len(scenario.anchors)} anchors, "
        f"seed {scenario.seed}"
    )
    return 0


def cmd_estimate(args) -> int:
    records = read_dataset(args.dataset)
    cfg = rio.load_config(args.config, ESTIMATOR_SCHEMA)
    anchors = sim.anchors_from_config(cfg["anchors"])
    result = run_pipeline(
        records,
        anchors,
        _ufls_config(cfg, args.mode),
        _wfls_config(cfg),
        mode=args.mode,
        default_odom_cov=_default_odom_cov(cfg),
    )
    if not result.estimates:
        raise EstimationDiverged(
            "estimator never initialized; it needs ranges from at least 4 "
            "distinct anchors, or a configured initial pose"
        )
    rio.write_trajectory(_prefixed(args.out, "corrected.log"), result.corrected)
    rio.write_trajectory(_prefixed(args.out, "ufls.log"), result.ufls_trajectory)
    rio.write_trajectory(_prefixed(args.out, "offsets.log"), result.offsets)
    _write_biases(_prefixed(args.out, "biases.log"), result.bias_rows)
    n_odom = sum(isinstance(rec, rio.OdomRecord) for rec in records)
    metrics = {
        "mode": args.mode,
        "odometry_records": n_odom,
        "range_records": len(records) - n_odom,
        "ranges_accepted": result.accepted,
        "ranges_rejected": result.rejected,
        "updates": len(result.estimates),
        "started_at": float(result.estimates[0].stamp),
        "corrected_poses": len(result.corrected),
    }
    for flag in sorted(result.flag_counts):
        metrics[f"flags_{flag}"] = result.flag_counts[flag]
    rio.write_metrics(_prefixed(args.out, "metrics.txt"), metrics)
    if result.update_seconds:
        ms = np.array(result.update_seconds) * 1e3
        print(
            f"{len(result.estimates)} updates ({len(ms)} ticks): mean {ms.mean():.2f} ms, "
            f"p99 {np.percentile(ms, 99):.2f} ms, max {ms.max():.2f} ms",
            file=sys.stderr,
        )
    return 0


def cmd_batch(args) -> int:
    records = read_dataset(args.dataset)
    cfg = rio.load_config(args.config, ESTIMATOR_SCHEMA)
    anchors = sim.anchors_from_config(cfg["anchors"])
    ufls_config = _ufls_config(cfg, "full")
    odom_records = [rec for rec in records if isinstance(rec, rio.OdomRecord)]
    range_records = [rec for rec in records if isinstance(rec, rio.RangeRecord)]
    solution = sim.batch_oracle(
        range_records,
        odom_records,
        anchors,
        mode="const_bias" if args.bias == "const" else "no_bias",
        tick_rate=ufls_config.update_rate,
        lever_arm=ufls_config.lever_arm,
        initial_pose=ufls_config.initial_prior(),
        range_sigma=ufls_config.range_sigma,
        default_odom_cov=_default_odom_cov(cfg),
    )
    rio.write_trajectory(
        _prefixed(args.out, "batch.log"),
        [(float(t), p) for t, p in zip(solution.stamps, solution.poses)],
    )
    metrics = {
        "bias_model": args.bias,
        "states": len(solution.poses),
        "iterations": solution.report.iterations,
        "final_cost": float(solution.report.final_cost),
        "converged": int(solution.report.converged),
    }
    for aid in sorted(solution.biases):
        metrics[f"anchor_{aid}_bias"] = float(solution.biases[aid])
    rio.write_metrics(_prefixed(args.out, "metrics.txt"), metrics)
    if not solution.report.converged:
        print("batch solve did not converge", file=sys.stderr)
        return 2
    return 0


def cmd_evaluate(args) -> int:
    estimated = _read_poses(args.estimated)
    reference = _read_poses(args.reference)
    metrics = trajectory_metrics(estimated, reference, align=args.align)
    if args.out is not None:
        rio.write_metrics(_prefixed(args.out, ""), metrics)
    else:
        for key, value in metrics.items():
            if isinstance(value, float):
                print(f"{key}: {rio.FLOAT_FMT.format(value)}")
            else:
                print(f"{key}: {value}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="raloc", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a dataset into a directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", default="small", choices=("small", "room"),
                   help="canned scenario (default: small)")
    p.add_argument("--scenario", default=None, help="scenario YAML, overrides --preset")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="replay a sensor log through the estimator")
    p.add_argument("dataset", help="sensor log (RANGE and ODOM records)")
    p.add_argument("--config", required=True, help="estimator YAML (anchors required)")
    p.add_argument("--mode", default="full", choices=MODES,
                   help="estimator variant (default: full)")
    p.add_argument("--out", required=True,
                   help="output path prefix; file names are appended to it")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("batch", help="solve the whole log as one factor graph")
    p.add_argument("dataset", help="sensor log (RANGE and ODOM records)")
    p.add_argument("--config", required=True, help="estimator YAML (anchors required)")
    p.add_argument("--bias", default="const", choices=("const", "none"),
                   help="bias model: one constant per anchor, or none (default: const)")
    p.add_argument("--out", required=True,
                   help="output path prefix; file names are appended to it")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("evaluate", help="compare a trajectory against a reference")
    p.add_argument("estimated", help="trajectory file or GT log")
    p.add_argument("reference", help="trajectory file or GT log")
    p.add_argument("--align", default="none", choices=("none", "first-pose"),
                   help="rigid alignment before scoring (default: none)")
    p.add_argument("--out", default=None,
                   help="write metrics to this file instead of stdout")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, yaml.YAMLError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except EstimationDiverged as err:
        print(f"estimation failed: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
