"""Dataset logs, stamped trajectories, metrics files, and strict configs.

The measurement log is line-oriented plain text, one record per line, led by
a record tag. Three record types exist:

    RANGE <stamp> <anchor_id> <range_m> <sigma_m>
    ODOM  <stamp> <abs|rel> <px> <py> <pz> <qx> <qy> <qz> <qw> [21 cov values]
    GT    <stamp> <px> <py> <pz> <qx> <qy> <qz> <qw>

Stamps are seconds; quaternions are w-last and must be unit norm within
1e-6. The optional 21 covariance values are the row-major upper triangle of
the 6x6 pose covariance in [rho, phi] tangent ordering; when omitted the
consumer synthesizes a configured default. ``abs`` marks poses in the
odometry frame, ``rel`` marks per-line increments. All floats are written
with 9 decimal places, so write(read(x)) is byte-identical for files this
module produced.

Configs are YAML with strict unknown-key rejection and optional environment
variable overrides (``RALOC_<SECTION>_<KEY>``, value parsed as YAML).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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


def canonical_quaternion(q: np.ndarray) -> np.ndarray:
    """Fix the double-cover sign so serialization is deterministic."""
    for x in (q[3], q[0], q[1], q[2]):
        if x > 0.0:
            return np.array(q, dtype=float)
        if x < 0.0:
            return -np.array(q, dtype=float)
    raise ValueError("zero quaternion")


def pose_to_parts(pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    quat = Rotation.from_matrix(pose.rotation).as_quat()
    return np.array(pose.position, dtype=float), canonical_quaternion(quat)


def parts_to_pose(position: np.ndarray, quaternion: np.ndarray) -> Pose:
    norm = float(np.linalg.norm(quaternion))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"quaternion norm {norm} outside unit tolerance")
    rot = Rotation.from_quat(np.asarray(quaternion, dtype=float) / norm).as_matrix()
    return Pose(rot, np.asarray(position, dtype=float))


def odometry_sample(rec: OdomRecord, default_cov: np.ndarray | None = None) -> OdometrySample:
    """An ODOM record as the sample the estimators consume.

    ``default_cov`` stands in for a record that carries no covariance (config
    key ``odometry.default_sigma``); without it such a record is an error.
    """
    if rec.cov_upper is not None:
        cov = unpack_upper(rec.cov_upper)
    elif default_cov is not None:
        cov = default_cov
    else:
        raise ValueError(
            f"odometry record at {rec.stamp} has no covariance and "
            "odometry.default_sigma is not set"
        )
    pose = parts_to_pose(rec.position, rec.quaternion)
    return OdometrySample(rec.stamp, PoseWithCovariance(pose, cov))


_UPPER = [(i, j) for i in range(6) for j in range(i, 6)]


def pack_upper(cov: np.ndarray) -> np.ndarray:
    """Row-major upper triangle of a symmetric 6x6 matrix (21 values)."""
    cov = np.asarray(cov, dtype=float)
    return np.array([cov[i, j] for i, j in _UPPER])


def unpack_upper(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (21,):
        raise ValueError("covariance upper triangle needs 21 values")
    cov = np.zeros((6, 6))
    for (i, j), v in zip(_UPPER, values):
        cov[i, j] = v
        cov[j, i] = v
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


def _parse_fields(tag: str, parts: list[str]):
    if tag == "RANGE":
        if len(parts) != 4:
            raise ValueError("RANGE needs stamp, anchor_id, range, sigma")
        return RangeRecord(float(parts[0]), int(parts[1]), float(parts[2]), float(parts[3]))
    if tag == "ODOM":
        if len(parts) not in (9, 30):
            raise ValueError("ODOM needs stamp, mode, pose(7) and optional cov(21)")
        if parts[1] not in ("abs", "rel"):
            raise ValueError(f"unknown odometry mode {parts[1]!r}")
        vals = [float(x) for x in parts[2:]]
        cov = np.array(vals[7:]) if len(parts) == 30 else None
        return OdomRecord(
            float(parts[0]), np.array(vals[:3]), np.array(vals[3:7]), cov, parts[1] == "rel"
        )
    if tag == "GT":
        if len(parts) != 8:
            raise ValueError("GT needs stamp and pose(7)")
        vals = [float(x) for x in parts[1:]]
        return GtRecord(float(parts[0]), np.array(vals[:3]), np.array(vals[3:7]))
    raise ValueError(f"unknown record tag {tag!r}")


def read_log(path, on_regression: str = "fail") -> Iterator:
    """Stream records from a log file in stamp order.

    Memory use is bounded: lines are parsed one at a time. A stamp running
    backwards is an error (``fail``) or silently skipped (``drop``).
    Malformed lines always raise, with the file location.
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
                    norm = float(np.linalg.norm(rec.quaternion))
                    if abs(norm - 1.0) > 1e-6:
                        raise ValueError(f"quaternion norm {norm} outside unit tolerance")
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


def write_trajectory(path, stamped_poses: Iterable[tuple[float, Pose]]) -> None:
    """Stamped poses, one per line: stamp tx ty tz qx qy qz qw."""
    with open(path, "w", encoding="utf-8") as handle:
        for stamp, pose in stamped_poses:
            pos, quat = pose_to_parts(pose)
            handle.write(_fmt(stamp) + " " + _fmt(*pos) + " " + _fmt(*quat) + "\n")


def read_trajectory(path) -> list[tuple[float, Pose]]:
    out: list[tuple[float, Pose]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise ValueError(f"{path}:{lineno}: trajectory lines carry 8 fields")
            vals = [float(x) for x in parts]
            if out and vals[0] < out[-1][0]:
                raise ValueError(f"{path}:{lineno}: stamps must be monotone")
            out.append((vals[0], parts_to_pose(np.array(vals[1:4]), np.array(vals[4:8]))))
    return out


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
    for name, raw in sorted(os.environ.items()):
        if not name.startswith(prefix):
            continue
        tail = name[len(prefix):].lower()
        section, _, key = tail.partition("_")
        if section in schema and isinstance(schema[section], dict) and key in schema[section]:
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
