"""Seeded input generator for the benchmark, written apart from ``raloc``.

It imports nothing from the program, so a change to ``raloc.sim`` cannot
change what is measured, and every truth the output checks use is computed
here. For one workload and seed it writes into an output directory:

- ``dataset.log``: the sensor log, ``RANGE`` and ``ODOM`` lines in the
  format of the program's README (9 decimals, w-last quaternions, 21-value
  upper-triangle covariances), odometry first at equal stamps;
- ``config.yaml``: the estimator config, the anchors and nothing else, so
  every other key takes the program's default;
- ``truth.npz``: truth positions at the odometry stamps, the raw odometry
  rigidly aligned at its first pose (dead reckoning), and for every range
  its stamp, anchor, NLOS label and the true bias of its anchor.

Usage: ``python3 perfbench/gen.py --workload estimate-small --seed 3 --out DIR``

The first ``fixed_s`` seconds of every noise and NLOS stream come from a
fixed generator, the rest from ``--seed``. The estimator is causal, so its
startup updates see the same inputs on every seed, and the startup faults the
program has (see the README) show the same way on every seed. ``batch-small``
draws its whole log from the fixed generator: its solve path depends on the
draws, so each run repeats the one path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ODOM_RATE = 200.0
RANGE_SIGMA = 0.1
NOISE_TRANS = 0.01  # m per sqrt(s)
NOISE_ROT = 0.002  # rad per sqrt(s)
DRIFT_TRANS = (0.010, -0.008, 0.004)  # m/s, body frame
DRIFT_YAW = 0.002  # rad/s
NLOS_MAGNITUDE = 2.0  # m
FIXED_PREFIX_S = 4.0
FIXED_PREFIX_SEED = 20231


@dataclass(frozen=True)
class Workload:
    """Make-up of one workload's inputs and the command that consumes them."""

    command: str  # "estimate" or "batch"
    room: tuple  # axis-aligned volume; one anchor at each of its 8 corners
    duration: float  # s
    range_rate: float  # Hz, round-robin over the anchors
    relative: bool  # ODOM lines as per-line increments ("rel") or poses ("abs")
    nlos_fraction: float = 0.0
    biases: dict = field(default_factory=dict)  # anchor id -> constant range bias, m
    # horizontal path: ellipse with semi-axes (a, b) whose radius breathes by
    # m, run at angular rate omega; height z0 plus a swing of h
    a: float = 2.4
    b: float = 2.8
    m: float = 0.4
    omega: float = 0.4
    z0: float = 1.5
    h: float = 0.5
    fixed_s: float = FIXED_PREFIX_S  # leading seconds drawn from fixed_seed
    fixed_seed: int = FIXED_PREFIX_SEED


WORKLOADS = {
    "estimate-small": Workload("estimate", (7.0, 8.0, 3.5), 205.0, 17.0, False),
    "estimate-nlos": Workload(
        "estimate", (10.0, 10.0, 5.0), 120.0, 40.0, True,
        nlos_fraction=0.10, biases={1: 0.3, 4: 0.4, 6: 0.5},
        a=3.2, b=3.2, m=0.6, omega=0.3, z0=2.2, h=0.8,
        fixed_seed=1,  # a startup on which the ungated bootstrap takes in a spike
    ),
    # a draw on which LM rejects candidates at the floor of cost rounding
    "batch-small": Workload(
        "batch", (7.0, 8.0, 3.5), 60.0, 17.0, False, fixed_s=math.inf, fixed_seed=1,
    ),
}


def anchors(room) -> np.ndarray:
    """Eight corner anchors, id i at row i (x fastest, then y, then z)."""
    ex, ey, ez = room
    return np.array([(x, y, z) for z in (0.0, ez) for y in (0.0, ey) for x in (0.0, ex)])


def skew(v: np.ndarray) -> np.ndarray:
    """Stacked skew matrices of (n, 3) vectors."""
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def se3_exp(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations and translations of (n, 6) twists [rho, phi]."""
    rho, phi = xi[:, :3], xi[:, 3:]
    t2 = np.sum(phi * phi, axis=1)[:, None, None]
    t = np.sqrt(t2)
    small = t < 1e-3
    safe = np.where(small, 1.0, t)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe)) / safe**2)
    c = np.where(small, 1.0 / 6.0 - t2 / 120.0, (safe - np.sin(safe)) / safe**3)
    S = skew(phi)
    SS = S @ S
    eye = np.eye(3)
    R = eye + a * S + b * SS
    V = eye + b * S + c * SS
    return R, np.einsum("nij,nj->ni", V, rho)


def quaternions(R: np.ndarray) -> np.ndarray:
    """Unit quaternions [x, y, z, w] with w >= 0 of (n, 3, 3) rotations."""
    w = 0.5 * np.sqrt(np.maximum(1.0 + R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2], 0.0))
    x = 0.5 * np.sqrt(np.maximum(1.0 + R[:, 0, 0] - R[:, 1, 1] - R[:, 2, 2], 0.0))
    y = 0.5 * np.sqrt(np.maximum(1.0 - R[:, 0, 0] + R[:, 1, 1] - R[:, 2, 2], 0.0))
    z = 0.5 * np.sqrt(np.maximum(1.0 - R[:, 0, 0] - R[:, 1, 1] + R[:, 2, 2], 0.0))
    x = np.copysign(x, R[:, 2, 1] - R[:, 1, 2])
    y = np.copysign(y, R[:, 0, 2] - R[:, 2, 0])
    z = np.copysign(z, R[:, 1, 0] - R[:, 0, 1])
    q = np.stack([x, y, z, w], axis=1)
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def truth_path(wl: Workload, stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions and yaw-only rotations along the workload's closed path."""
    cx, cy = wl.room[0] / 2.0, wl.room[1] / 2.0
    t = stamps
    radius = 1.0 + (wl.m / wl.a) * np.sin(0.37 * t)
    th = wl.omega * t
    x = cx + wl.a * radius * np.cos(th)
    y = cy + wl.b * radius * np.sin(th)
    z = wl.z0 + wl.h * np.sin(0.23 * t)
    dr = (wl.m / wl.a) * 0.37 * np.cos(0.37 * t)
    vx = wl.a * (dr * np.cos(th) - radius * wl.omega * np.sin(th))
    vy = wl.b * (dr * np.sin(th) + radius * wl.omega * np.cos(th))
    yaw = np.unwrap(np.arctan2(vy, vx))
    c, s = np.cos(yaw), np.sin(yaw)
    R = np.zeros((len(t), 3, 3))
    R[:, 0, 0], R[:, 0, 1], R[:, 1, 0], R[:, 1, 1], R[:, 2, 2] = c, -s, s, c, 1.0
    return np.stack([x, y, z], axis=1), R


def draws(wl: Workload, seed: int, n_steps: int, n_ranges: int, range_stamps: np.ndarray):
    """Odometry step noise, range noise and NLOS draws; fixed prefix, seeded rest."""
    split_step = int(np.sum(np.arange(1, n_steps + 1) / ODOM_RATE <= wl.fixed_s))
    split_range = int(np.sum(range_stamps < wl.fixed_s))
    out = []
    for rng in (np.random.default_rng(wl.fixed_seed), np.random.default_rng(seed)):
        out.append((
            rng.normal(size=(n_steps, 6)),
            rng.normal(size=n_ranges),
            rng.random(size=n_ranges),
        ))
    (n0, r0, u0), (n1, r1, u1) = out
    n1[:split_step], r1[:split_range], u1[:split_range] = (
        n0[:split_step], r0[:split_range], u0[:split_range]
    )
    return n1, r1, u1


def make(wl: Workload, seed: int, noise: bool = True) -> dict:
    """All streams and truths of one workload; ``noise=False`` drops noise and drift."""
    n = int(round(wl.duration * ODOM_RATE)) + 1
    stamps = np.arange(n) / ODOM_RATE
    pos, rot = truth_path(wl, stamps)
    n_ranges = int(np.floor(wl.duration * wl.range_rate + 1e-9)) + 1
    range_stamps = np.arange(n_ranges) / wl.range_rate
    step_noise, range_noise, nlos_u = draws(wl, seed, n - 1, n_ranges, range_stamps)

    dt = 1.0 / ODOM_RATE
    step_sigma = np.array([NOISE_TRANS] * 3 + [NOISE_ROT] * 3) * np.sqrt(dt)
    drift = np.array([*DRIFT_TRANS, 0.0, 0.0, DRIFT_YAW]) * dt
    if not noise:
        step_sigma, drift = np.zeros(6), np.zeros(6)
    err_R, err_p = se3_exp(drift + step_noise * step_sigma)
    # true body increments, then the odometry increment inc * exp(err)
    inc_R = np.einsum("nji,njk->nik", rot[:-1], rot[1:])
    inc_p = np.einsum("nji,nj->ni", rot[:-1], pos[1:] - pos[:-1])
    step_R = inc_R @ err_R
    step_p = inc_p + np.einsum("nij,nj->ni", inc_R, err_p)
    odo_R = np.empty((n, 3, 3))
    odo_p = np.empty((n, 3))
    odo_R[0], odo_p[0] = np.eye(3), np.zeros(3)
    R, p = odo_R[0], odo_p[0]
    for k in range(n - 1):
        p = p + R @ step_p[k]
        R = R @ step_R[k]
        odo_R[k + 1], odo_p[k + 1] = R, p
    # dead reckoning: the odometry frame placed on the first truth pose
    dead_reckoning = pos[0] + odo_p @ rot[0].T

    anchor_pos = anchors(wl.room)
    ids = np.arange(n_ranges) % len(anchor_pos)
    range_pos, _ = truth_path(wl, range_stamps)
    nlos = nlos_u < wl.nlos_fraction
    bias = np.array([wl.biases.get(int(i), 0.0) for i in ids])
    ranges = np.linalg.norm(anchor_pos[ids] - range_pos, axis=1) + bias
    if noise:
        ranges = ranges + RANGE_SIGMA * range_noise + NLOS_MAGNITUDE * nlos
    return {
        "stamps": stamps,
        "truth_pos": pos,
        "odom_R": np.concatenate([np.eye(3)[None], step_R]) if wl.relative else odo_R,
        "odom_p": np.concatenate([np.zeros((1, 3)), step_p]) if wl.relative else odo_p,
        "dead_reckoning": dead_reckoning,
        "step_var": step_sigma**2,
        "range_stamps": range_stamps,
        "range_ids": ids,
        "ranges": ranges,
        "nlos": nlos,
        "anchor_pos": anchor_pos,
        "true_bias": np.array([wl.biases.get(i, 0.0) for i in range(len(anchor_pos))]),
    }


def write(wl: Workload, data: dict, out: Path) -> dict:
    """Write the sensor log, the config and the truths; return a summary."""
    out.mkdir(parents=True, exist_ok=True)
    mode = "rel" if wl.relative else "abs"
    quats = quaternions(data["odom_R"])
    cov = np.zeros(21)
    cov[[0, 6, 11, 15, 18, 20]] = data["step_var"]
    cov_text = " ".join(f"{v:.9f}" for v in cov)
    zero_text = " ".join(["0.000000000"] * 21)
    odom_lines = [
        f"ODOM {t:.9f} {mode} {p[0]:.9f} {p[1]:.9f} {p[2]:.9f} "
        f"{q[0]:.9f} {q[1]:.9f} {q[2]:.9f} {q[3]:.9f} {zero_text if k == 0 else cov_text}"
        for k, (t, p, q) in enumerate(zip(data["stamps"], data["odom_p"], quats))
    ]
    range_lines = [
        f"RANGE {t:.9f} {i} {r:.9f} {RANGE_SIGMA:.9f}"
        for t, i, r in zip(data["range_stamps"], data["range_ids"], data["ranges"])
    ]
    # stamps as written, odometry first at equal stamps
    keys = np.concatenate([np.round(data["stamps"], 9), np.round(data["range_stamps"], 9)])
    kinds = np.concatenate([np.zeros(len(odom_lines)), np.ones(len(range_lines))])
    lines = odom_lines + range_lines
    with open(out / "dataset.log", "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[i] for i in np.lexsort((kinds, keys))) + "\n")
    with open(out / "config.yaml", "w", encoding="utf-8") as handle:
        handle.write("anchors:\n")
        for i, a in enumerate(data["anchor_pos"]):
            handle.write(f"  - {{id: {i}, position: [{a[0]}, {a[1]}, {a[2]}]}}\n")
    np.savez(
        out / "truth.npz",
        **{k: data[k] for k in (
            "stamps", "truth_pos", "dead_reckoning", "range_stamps", "range_ids",
            "nlos", "anchor_pos", "true_bias",
        )},
    )
    return {
        "command": wl.command,
        "odometry_records": len(odom_lines),
        "range_records": len(range_lines),
        "nlos_ranges": int(data["nlos"].sum()),
        "relative": wl.relative,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    wl = WORKLOADS[args.workload]
    summary = write(wl, make(wl, args.seed), Path(args.out))
    summary["gen_s"] = time.perf_counter() - start
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
