"""Dataset logs, stamped trajectories, metrics files, and strict configs.

The measurement log is line-oriented plain text, one record per line, led by
a record tag. Three record types exist:

    RANGE <stamp> <anchor_id> <range_m> <sigma_m>
    ODOM  <stamp> <abs|rel> <px> <py> <pz> <qx> <qy> <qz> <qw> [21 cov values]
    GT    <stamp> <px> <py> <pz> <qx> <qy> <qz> <qw>

Stamps are seconds; every numeric field must be finite, and quaternions are
w-last and must be unit norm within 1e-6. The optional 21 covariance values
are the row-major upper triangle of the 6x6 pose covariance in [rho, phi]
tangent ordering; when omitted the consumer synthesizes a configured
default. ``abs`` marks poses in the
odometry frame, ``rel`` marks per-line increments. All floats are written
with 9 decimal places, so write(read(x)) is byte-identical for files this
module produced.

Poses convert to and from (position, quaternion) only through one stacked
pair: ``parts_from_poses`` encodes N rotations in one scipy call and fixes
the double-cover sign so the first nonzero of (w, x, y, z) is positive (a
zero quaternion raises); ``poses_from_parts`` decodes N rows in one scipy
call, each quaternion divided by its norm as ``np.linalg.norm`` computes it
for that row alone. The streaming paths (``write_trajectory`` and
``odometry_samples``) convert ``CHUNK`` rows at a time, so their temporaries
stay bounded; ``pose_to_parts`` and ``parts_to_pose`` are one-row calls of
the pair. Stacked and one-row conversions give the same bits.

Configs are YAML with strict unknown-key rejection and optional environment
variable overrides (``RALOC_<SECTION>_<KEY>``, value parsed as YAML).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice
from math import isfinite, sqrt
from typing import Iterable, Iterator

import numpy as np
import yaml
from scipy.spatial.transform import Rotation

from .lie import Pose, PoseWithCovariance
from .preintegration import OdometrySample

FLOAT_FMT = "{:.9f}"


@dataclass(frozen=True)
class RangeRecord:
    stamp: float
    anchor_id: int
    range_m: float
    sigma_m: float


@dataclass(frozen=True)
class OdomRecord:
    """Odometry line: pose (absolute or per-line increment) plus covariance.

    ``quaternion`` is [qx, qy, qz, qw]; ``cov_upper`` is the 21-value upper
    triangle or None when the stream does not report covariance.
    """

    stamp: float
    position: np.ndarray
    quaternion: np.ndarray
    cov_upper: np.ndarray | None
    relative: bool


@dataclass(frozen=True)
class GtRecord:
    stamp: float
    position: np.ndarray
    quaternion: np.ndarray


CHUNK = 1024  # records or poses per stacked conversion in the streaming paths


def _chunks(items: Iterable) -> Iterator[list]:
    """Successive lists of up to ``CHUNK`` items."""
    it = iter(items)
    while block := list(islice(it, CHUNK)):
        yield block


def _norm(q: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array, exactly as ``np.linalg.norm`` computes it."""
    return sqrt(q.dot(q))


def parts_from_poses(poses: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """Stacked encode: positions (N, 3) and canonical w-last quaternions (N, 4).

    One scipy call converts every rotation. The double-cover sign is fixed so
    serialization is deterministic: the first nonzero of (w, x, y, z) is made
    positive; a zero quaternion raises.
    """
    positions = np.array([pose.position for pose in poses], dtype=float).reshape(-1, 3)
    rotations = np.array([pose.rotation for pose in poses], dtype=float).reshape(-1, 3, 3)
    quats = Rotation.from_matrix(rotations).as_quat()
    ordered = quats[:, [3, 0, 1, 2]]
    # comparisons, not != 0.0, so a NaN component is passed over like a zero
    nonzero = (ordered > 0.0) | (ordered < 0.0)
    if not nonzero.any(axis=1).all():
        raise ValueError("zero quaternion")
    first = ordered[np.arange(len(ordered)), nonzero.argmax(axis=1)]
    return positions, np.where((first < 0.0)[:, None], -quats, quats)


def poses_from_parts(positions: np.ndarray, quaternions: np.ndarray) -> list[Pose]:
    """Stacked decode of positions (N, 3) and w-last quaternions (N, 4).

    Each norm is taken row by row (``_norm``), so a pose reads back with the
    same bits as when decoded alone; a stacked ``axis=1`` norm can differ in
    the last bit.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    quats = np.asarray(quaternions, dtype=float).reshape(-1, 4)
    norms = np.array([_norm(q) for q in quats])
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-6)
    if len(bad):
        raise ValueError(f"quaternion norm {norms[bad[0]]} outside unit tolerance")
    rots = Rotation.from_quat(quats / norms[:, None]).as_matrix()
    # rows are copied: a view would keep its whole block alive for as long as
    # any one pose from it is (3 MB more peak RSS on a 41k-record replay)
    return [Pose(rot.copy(), pos.copy()) for rot, pos in zip(rots, positions)]


def pose_to_parts(pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    positions, quats = parts_from_poses([pose])
    return positions[0], quats[0]


def parts_to_pose(position: np.ndarray, quaternion: np.ndarray) -> Pose:
    return poses_from_parts(position, quaternion)[0]


def odometry_samples(
    records: Iterable[OdomRecord], default_cov: np.ndarray | None = None
) -> Iterator[OdometrySample]:
    """ODOM records as the samples the estimators consume, decoded in chunks.

    ``default_cov`` stands in for a record that carries no covariance (config
    key ``odometry.default_sigma``); without it such a record is an error,
    raised once every sample before it has been yielded.
    """
    for block in _chunks(records):
        stop = len(block)
        if default_cov is None:
            stop = next((k for k, rec in enumerate(block) if rec.cov_upper is None), stop)
        head = block[:stop]
        poses = poses_from_parts([rec.position for rec in head], [rec.quaternion for rec in head])
        given = [rec.cov_upper for rec in head if rec.cov_upper is not None]
        covs = iter(unpack_upper(np.reshape(given, (-1, 21))))
        for rec, pose in zip(head, poses):
            cov = default_cov if rec.cov_upper is None else next(covs).copy()
            yield OdometrySample(rec.stamp, PoseWithCovariance(pose, cov))
        if stop < len(block):
            raise ValueError(
                f"odometry record at {block[stop].stamp} has no covariance and "
                "odometry.default_sigma is not set"
            )


_ROWS, _COLS = np.triu_indices(6)


def pack_upper(cov: np.ndarray) -> np.ndarray:
    """Row-major upper triangle of a symmetric 6x6 matrix (21 values)."""
    return np.asarray(cov, dtype=float)[..., _ROWS, _COLS]


def unpack_upper(values: np.ndarray) -> np.ndarray:
    """Symmetric 6x6 matrices from row-major upper triangles, (..., 21) -> (..., 6, 6)."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (21,):
        raise ValueError("covariance upper triangle needs 21 values")
    cov = np.zeros(values.shape[:-1] + (6, 6))
    cov[..., _ROWS, _COLS] = values
    cov[..., _COLS, _ROWS] = values
    return cov


def _fmt(*values: float) -> str:
    return " ".join(FLOAT_FMT.format(float(v)) for v in values)


def format_record(rec) -> str:
    if isinstance(rec, RangeRecord):
        return f"RANGE {_fmt(rec.stamp)} {rec.anchor_id} {_fmt(rec.range_m, rec.sigma_m)}"
    if isinstance(rec, OdomRecord):
        mode = "rel" if rec.relative else "abs"
        head = f"ODOM {_fmt(rec.stamp)} {mode} {_fmt(*rec.position)} {_fmt(*rec.quaternion)}"
        if rec.cov_upper is None:
            return head
        return head + " " + _fmt(*rec.cov_upper)
    if isinstance(rec, GtRecord):
        return f"GT {_fmt(rec.stamp)} {_fmt(*rec.position)} {_fmt(*rec.quaternion)}"
    raise TypeError(f"not a log record: {rec!r}")


def _finite(values: list[float]) -> list[float]:
    # a sum of finite values is finite unless it overflows, so only then look closer
    if not isfinite(sum(values)):
        bad = next((v for v in values if not isfinite(v)), None)
        if bad is not None:
            raise ValueError(f"non-finite value {bad}")
    return values


def _check_unit(quaternion: np.ndarray) -> None:
    norm = _norm(quaternion)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"quaternion norm {norm} outside unit tolerance")


def _parse_fields(tag: str, parts: list[str]):
    if tag == "RANGE":
        if len(parts) != 4:
            raise ValueError("RANGE needs stamp, anchor_id, range, sigma")
        stamp, range_m, sigma_m = _finite([float(parts[0]), float(parts[2]), float(parts[3])])
        return RangeRecord(stamp, int(parts[1]), range_m, sigma_m)
    if tag == "ODOM":
        if len(parts) not in (9, 30):
            raise ValueError("ODOM needs stamp, mode, pose(7) and optional cov(21)")
        if parts[1] not in ("abs", "rel"):
            raise ValueError(f"unknown odometry mode {parts[1]!r}")
        stamp, *vals = _finite([float(parts[0]), *map(float, parts[2:])])
        cov = np.array(vals[7:]) if len(parts) == 30 else None
        return OdomRecord(
            stamp, np.array(vals[:3]), np.array(vals[3:7]), cov, parts[1] == "rel"
        )
    if tag == "GT":
        if len(parts) != 8:
            raise ValueError("GT needs stamp and pose(7)")
        vals = _finite(list(map(float, parts)))
        return GtRecord(vals[0], np.array(vals[1:4]), np.array(vals[4:8]))
    raise ValueError(f"unknown record tag {tag!r}")


def read_log(path, on_regression: str = "fail") -> Iterator:
    """Stream records from a log file in stamp order.

    Memory use is bounded: lines are parsed one at a time. A stamp running
    backwards is an error (``fail``) or silently skipped (``drop``).
    Malformed lines, non-finite values and non-unit quaternions always raise,
    with the file location.
    """
    if on_regression not in ("fail", "drop"):
        raise ValueError("on_regression must be 'fail' or 'drop'")
    last = -np.inf
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tag, *parts = line.split()
            try:
                rec = _parse_fields(tag, parts)
                if isinstance(rec, (OdomRecord, GtRecord)):
                    _check_unit(rec.quaternion)
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            if rec.stamp < last:
                if on_regression == "fail":
                    raise ValueError(
                        f"{path}:{lineno}: stamp {rec.stamp} behind previous {last}"
                    )
                continue
            last = rec.stamp
            yield rec


def write_log(path, records: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(format_record(rec) + "\n")


_TRAJECTORY_LINE = " ".join([FLOAT_FMT] * 8) + "\n"


def write_trajectory(path, stamped_poses: Iterable[tuple[float, Pose]]) -> None:
    """Stamped poses, one per line: stamp tx ty tz qx qy qz qw.

    Poses are encoded ``CHUNK`` at a time by ``parts_from_poses``.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for block in _chunks(stamped_poses):
            positions, quats = parts_from_poses([pose for _, pose in block])
            stamps = np.array([stamp for stamp, _ in block], dtype=float)
            rows = np.column_stack([stamps, positions, quats]).tolist()
            handle.write("".join(_TRAJECTORY_LINE.format(*row) for row in rows))


def read_trajectory(path) -> list[tuple[float, Pose]]:
    """Stamped poses from a trajectory file; every line is checked before decoding."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) != 8:
                    raise ValueError("trajectory lines carry 8 fields")
                vals = _finite(list(map(float, parts)))
                if rows and vals[0] < rows[-1][0]:
                    raise ValueError("stamps must be monotone")
                _check_unit(np.array(vals[4:8]))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            rows.append(vals)
    table = np.array(rows, dtype=float).reshape(-1, 8)
    poses = poses_from_parts(table[:, 1:4], table[:, 4:8])
    return list(zip(table[:, 0].tolist(), poses))


def write_metrics(path, metrics: dict) -> None:
    """Flat key/value report, deterministic order and formatting."""
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in metrics.items():
            if isinstance(value, float):
                handle.write(f"{key}: {FLOAT_FMT.format(value)}\n")
            else:
                handle.write(f"{key}: {value}\n")


def read_metrics(path) -> dict:
    out: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            key, value = line.split(":", maxsplit=1)
            value = value.strip()
            try:
                out[key] = int(value)
            except ValueError:
                try:
                    out[key] = float(value)
                except ValueError:
                    out[key] = value
    return out


def config_float(key: str, value) -> float:
    """A config value as a float; anything else is a ValueError naming the key."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"config key '{key}' must be a number, got {value!r}") from None


REQUIRED = object()
# schema marker for free-form mappings (arbitrary keys, defaults to empty)
FREEFORM = object()


def _merge_strict(schema: dict, data: dict, path: str) -> dict:
    out = {}
    for key, value in data.items():
        if key not in schema:
            raise ValueError(f"unknown config key '{path}{key}'")
        default = schema[key]
        if default is FREEFORM:
            if not isinstance(value, dict):
                raise ValueError(f"config key '{path}{key}' must be a mapping")
            out[key] = value
        elif isinstance(default, dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key '{path}{key}' must be a mapping")
            out[key] = _merge_strict(default, value, f"{path}{key}.")
        else:
            out[key] = value
    for key, default in schema.items():
        if key in out:
            continue
        if default is FREEFORM:
            out[key] = {}
        elif isinstance(default, dict):
            out[key] = _merge_strict(default, {}, f"{path}{key}.")
        elif default is REQUIRED:
            raise ValueError(f"missing required config key '{path}{key}'")
        else:
            out[key] = default
    return out


def _apply_env(config: dict, schema: dict, prefix: str) -> None:
    """Override keys from ``<prefix><SECTION>_<KEY>`` or ``<prefix><KEY>`` variables.

    Names may contain ``_``, so the longest matching section wins.
    """
    sections = sorted((s for s in schema if isinstance(schema[s], dict)), key=len, reverse=True)
    for name, raw in sorted(os.environ.items()):
        if not name.startswith(prefix):
            continue
        tail = name[len(prefix):].lower()
        section = next((s for s in sections if tail.startswith(s + "_")), None)
        key = tail[len(section) + 1:] if section is not None else None
        if section is not None and key in schema[section]:
            config[section][key] = yaml.safe_load(raw)
        elif tail in schema and not isinstance(schema[tail], dict):
            config[tail] = yaml.safe_load(raw)


def load_config(path, schema: dict, env_prefix: str | None = "RALOC_") -> dict:
    """YAML config validated against a schema of defaults.

    Unknown keys are rejected with their dotted path; REQUIRED marks keys
    that must be present. Environment variables override file values.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = yaml.safe_load(handle)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config root must be a mapping")
    try:
        config = _merge_strict(schema, data, "")
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if env_prefix:
        _apply_env(config, schema, env_prefix)
    return config
