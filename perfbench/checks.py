"""Output checks of the benchmark, computed from the generator's truth.

Nothing here compares against a saved copy of earlier output. Each check is
a property the outputs must have, or a bound against the truth that
``gen.py`` computed apart from the program. Every ``check_*`` function
returns ``(failures, figures)``: a list of messages, empty when the outputs
pass, and the accuracy figures the benchmark reports.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ODOM_RATE = 200.0
TICK_RATE = 5.0  # the estimator config's default ufls.update_rate
STARTUP_S = 2.0  # after the first estimate; the criterion-09 definition
QUAT_TOL = 1e-6
# accuracy bounds against the truth, in metres
CORRECTED_RMSE_BOUND = {"estimate-small": 0.25, "estimate-nlos": 0.35}
BATCH_RMSE_BOUND = 0.2
BATCH_BIAS_BOUND = 0.1
SPIKES_REJECTED_MIN = 0.95
CLEAN_REJECTED_MAX = 0.01
BIAS_SIGMAS = 4.0  # final bias estimates of biased anchors within this many sigma
ESTIMATE_OUTPUTS = ("corrected.log", "ufls.log", "offsets.log", "biases.log", "metrics.txt")
BATCH_OUTPUTS = ("batch.log", "metrics.txt")


def read_metrics(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            key, value = line.split(":", 1)
            value = value.strip()
            try:
                out[key] = int(value)
            except ValueError:
                try:
                    out[key] = float(value)
                except ValueError:
                    out[key] = value
    return out


def read_table(path, columns: int) -> np.ndarray:
    rows = np.loadtxt(path, ndmin=2)
    return rows.reshape(-1, columns) if rows.size else np.zeros((0, columns))


def load_outputs(prefix: str, names) -> tuple[dict, list]:
    """Every output file under ``prefix``, parsed; plus messages for missing ones."""
    outputs, missing = {}, []
    for name in names:
        path = Path(prefix + name)
        if not path.is_file():
            missing.append(f"{name} not written")
        elif name == "metrics.txt":
            outputs[name] = read_metrics(path)
        else:
            outputs[name] = read_table(path, 4 if name == "biases.log" else 8)
    return outputs, missing


def _unit_quaternions(name: str, rows: np.ndarray) -> list:
    norms = np.linalg.norm(rows[:, 4:8], axis=1)
    bad = int(np.sum(np.abs(norms - 1.0) > QUAT_TOL))
    return [f"{name}: {bad} quaternions off unit norm"] if bad else []


def _odometry_index(truth, stamps: np.ndarray) -> np.ndarray | None:
    """Index of each stamp in the odometry stream, or None if one is not there."""
    idx = np.rint(stamps * ODOM_RATE).astype(int)
    if np.any(idx < 0) or np.any(idx >= len(truth["stamps"])):
        return None
    if np.any(np.abs(truth["stamps"][idx] - stamps) > 1e-9):
        return None
    return idx


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


def check_estimate(workload: str, truth, range_lines: int, outputs: dict, record: dict):
    """Checks of one ``raloc estimate`` run.

    ``record`` holds what the probe saw: ``updates`` as (stamp, seconds,
    returned, flags) and ``ingest``, the ``Ufls.ingest_range`` results.
    """
    fails, figures = [], {}
    metrics = outputs["metrics.txt"]
    corrected = outputs["corrected.log"]

    tally = len(record["ingest"])
    told = metrics.get("ranges_accepted", -1) + metrics.get("ranges_rejected", -1)
    if not told == range_lines == tally:
        fails.append(
            f"ranges: metrics.txt counts {told}, the log holds {range_lines}, "
            f"ingest_range returned {tally} times"
        )
    if metrics.get("ranges_accepted") != sum(record["ingest"]):
        fails.append("ranges_accepted differs from the accepted ingest_range returns")
    returned = sum(1 for u in record["updates"] if u[2])
    if metrics.get("updates") != returned:
        fails.append(f"updates {metrics.get('updates')} but {returned} estimates returned")

    for name in ("corrected.log", "ufls.log", "offsets.log"):
        fails += _unit_quaternions(name, outputs[name])
    if len(corrected) < 3:
        return fails + ["corrected.log holds fewer than 3 poses"], figures
    stamps = corrected[:, 0]
    if not np.all(np.diff(stamps) > 0.0):
        fails.append("corrected stamps do not strictly increase")
    idx = _odometry_index(truth, stamps)
    if idx is None:
        return fails + ["a corrected stamp is not an odometry stamp"], figures

    pos = corrected[:, 1:4]
    figures["corrected_rmse_m"] = rmse(pos, truth["truth_pos"][idx])
    figures["dead_reckoning_rmse_m"] = rmse(truth["dead_reckoning"][idx], truth["truth_pos"][idx])
    if not figures["corrected_rmse_m"] < CORRECTED_RMSE_BOUND[workload]:
        fails.append(
            f"corrected RMSE {figures['corrected_rmse_m']:.3f} m over its bound "
            f"{CORRECTED_RMSE_BOUND[workload]} m"
        )
    if not figures["corrected_rmse_m"] < figures["dead_reckoning_rmse_m"]:
        fails.append("corrected poses are no better than dead reckoning")
    steady = metrics.get("started_at", 0.0) + STARTUP_S
    after = pos[stamps >= steady]
    d2 = after[2:] - 2.0 * after[1:-1] + after[:-2]
    figures["corrected_max_d2_m"] = float(np.max(np.linalg.norm(d2, axis=1))) if len(d2) else 0.0

    biases = outputs["biases.log"]
    final = {}
    for stamp, aid, mean, sigma in biases:
        final[int(aid)] = (mean, sigma)
    if sorted(final) != list(range(len(truth["true_bias"]))):
        fails.append("biases.log does not carry every anchor")
    else:
        err = np.array([final[a][0] - truth["true_bias"][a] for a in sorted(final)])
        figures["bias_rmse_m"] = float(np.sqrt(np.mean(err**2)))
        for a in np.flatnonzero(truth["true_bias"]):
            mean, sigma = final[int(a)]
            if abs(mean - truth["true_bias"][a]) > BIAS_SIGMAS * sigma:
                fails.append(
                    f"anchor {a} bias {mean:.3f} m, truth {truth['true_bias'][a]:.3f} m, "
                    f"more than {BIAS_SIGMAS:g} sigma ({sigma:.3f} m) apart"
                )

    nlos = truth["nlos"]
    if nlos.any() and len(record["ingest"]) == len(nlos):
        rejected = ~np.asarray(record["ingest"], dtype=bool)
        later = truth["range_stamps"] >= steady
        spikes, clean = later & nlos, later & ~nlos
        figures["spikes_rejected"] = float(rejected[spikes].mean())
        figures["clean_rejected"] = float(rejected[clean].mean())
        # not bounded: startup lets spikes in (see the README)
        figures["startup_spikes_accepted"] = int(np.sum(~rejected & ~later & nlos))
        if figures["spikes_rejected"] < SPIKES_REJECTED_MIN:
            fails.append(f"only {figures['spikes_rejected']:.3f} of NLOS spikes rejected")
        if figures["clean_rejected"] > CLEAN_REJECTED_MAX:
            fails.append(f"{figures['clean_rejected']:.4f} of clean ranges rejected")
    return fails, figures


def check_batch(truth, outputs: dict):
    """Checks of one ``raloc batch --bias const`` run."""
    fails, figures = [], {}
    metrics = outputs["metrics.txt"]
    rows = outputs["batch.log"]
    if metrics.get("converged") != 1:
        fails.append(f"batch solve reports converged: {metrics.get('converged')}")
    stamps = truth["stamps"]
    ticks = int(np.floor((stamps[-1] - stamps[0]) * TICK_RATE + 1e-9)) + 1
    if metrics.get("states") != ticks or len(rows) != ticks:
        fails.append(
            f"batch states {metrics.get('states')} and {len(rows)} poses, "
            f"but the odometry spans {ticks} ticks"
        )
    fails += _unit_quaternions("batch.log", rows)
    idx = _odometry_index(truth, rows[:, 0])
    if idx is None:
        return fails + ["a batch stamp is not an odometry stamp"], figures
    figures["batch_rmse_m"] = rmse(rows[:, 1:4], truth["truth_pos"][idx])
    if not figures["batch_rmse_m"] < BATCH_RMSE_BOUND:
        fails.append(f"batch RMSE {figures['batch_rmse_m']:.3f} m over {BATCH_RMSE_BOUND} m")
    err = []
    for a, true in enumerate(truth["true_bias"]):
        est = metrics.get(f"anchor_{a}_bias")
        if est is None:
            fails.append(f"no bias estimate for anchor {a}")
            continue
        err.append(est - true)
        if abs(est - true) > BATCH_BIAS_BOUND:
            fails.append(f"anchor {a} bias {est:.3f} m, truth {true:.3f} m")
    if err:
        figures["bias_rmse_m"] = float(np.sqrt(np.mean(np.square(err))))
    return fails, figures
