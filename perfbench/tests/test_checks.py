"""Tests of the benchmark itself: its generator, its output checks and its
speed normalisation.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
They run no part of ``raloc``: the outputs they check are built here, once
consistent with the generator's truth and then each made wrong in one way.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

START = 0.2  # stamp of the first estimate in the built outputs


def short(name: str, duration: float = 12.0):
    return dataclasses.replace(gen.WORKLOADS[name], duration=duration)


def trajectory(stamps, positions):
    quat = np.tile([0.0, 0.0, 0.0, 1.0], (len(stamps), 1))
    return np.column_stack([stamps, positions, quat])


def estimate_case(name: str):
    """Truth of a short log and outputs that agree with it exactly."""
    data = gen.make(short(name), seed=5)
    stamps = data["stamps"]
    keep = stamps >= START + 0.1
    corrected = trajectory(stamps[keep], data["truth_pos"][keep])
    ticks = np.arange(START, stamps[-1], 0.2)
    tick_rows = np.rint(ticks * gen.ODOM_RATE).astype(int)
    ufls = trajectory(stamps[tick_rows], data["truth_pos"][tick_rows])
    biases = np.array([[stamps[-1], a, b, 0.05] for a, b in enumerate(data["true_bias"])])
    ingest = [not spike for spike in data["nlos"]]
    updates = [(t, 0.01, True, []) for t in ticks]
    metrics = {
        "ranges_accepted": sum(ingest),
        "ranges_rejected": len(ingest) - sum(ingest),
        "updates": len(updates),
        "started_at": START,
    }
    outputs = {
        "corrected.log": corrected,
        "ufls.log": ufls,
        "offsets.log": ufls,
        "biases.log": biases,
        "metrics.txt": metrics,
    }
    return data, len(ingest), outputs, {"ingest": ingest, "updates": updates}


def batch_case():
    data = gen.make(short("batch-small"), seed=5)
    rows = np.rint(np.arange(0.0, data["stamps"][-1] + 1e-9, 0.2) * gen.ODOM_RATE).astype(int)
    outputs = {
        "batch.log": trajectory(data["stamps"][rows], data["truth_pos"][rows]),
        "metrics.txt": {"states": len(rows), "converged": 1}
        | {f"anchor_{a}_bias": float(b) for a, b in enumerate(data["true_bias"])},
    }
    return data, outputs


@pytest.mark.parametrize("name", ["estimate-small", "estimate-nlos"])
def test_consistent_estimate_outputs_pass(name):
    data, lines, outputs, record = estimate_case(name)
    fails, figures = checks.check_estimate(name, data, lines, outputs, record)
    assert fails == []
    assert figures["corrected_rmse_m"] == 0.0
    assert figures["dead_reckoning_rmse_m"] > 0.0


def test_corrected_poses_shifted_by_half_a_metre_fail():
    data, lines, outputs, record = estimate_case("estimate-small")
    outputs["corrected.log"][:, 1] += 0.5
    fails, _ = checks.check_estimate("estimate-small", data, lines, outputs, record)
    assert any("corrected RMSE" in msg for msg in fails)


def test_a_range_dropped_from_the_tally_fails():
    data, lines, outputs, record = estimate_case("estimate-small")
    record["ingest"] = record["ingest"][:-1]
    fails, _ = checks.check_estimate("estimate-small", data, lines, outputs, record)
    assert any(msg.startswith("ranges:") for msg in fails)


def test_a_range_missing_from_metrics_fails():
    data, lines, outputs, record = estimate_case("estimate-small")
    outputs["metrics.txt"]["ranges_accepted"] -= 1
    fails, _ = checks.check_estimate("estimate-small", data, lines, outputs, record)
    assert any(msg.startswith("ranges:") for msg in fails)


def test_a_corrected_stamp_off_the_odometry_stream_fails():
    data, lines, outputs, record = estimate_case("estimate-small")
    outputs["corrected.log"][100, 0] += 0.001
    fails, _ = checks.check_estimate("estimate-small", data, lines, outputs, record)
    assert "a corrected stamp is not an odometry stamp" in fails


def test_update_count_mismatch_fails():
    data, lines, outputs, record = estimate_case("estimate-small")
    outputs["metrics.txt"]["updates"] += 1
    fails, _ = checks.check_estimate("estimate-small", data, lines, outputs, record)
    assert any(msg.startswith("updates") for msg in fails)


def test_non_unit_quaternion_fails():
    data, lines, outputs, record = estimate_case("estimate-small")
    outputs["corrected.log"][7, 7] = 1.00001
    fails, _ = checks.check_estimate("estimate-small", data, lines, outputs, record)
    assert any("unit norm" in msg for msg in fails)


def test_accepted_spikes_fail():
    data, lines, outputs, record = estimate_case("estimate-nlos")
    record["ingest"] = [True] * lines
    outputs["metrics.txt"].update(ranges_accepted=lines, ranges_rejected=0)
    fails, _ = checks.check_estimate("estimate-nlos", data, lines, outputs, record)
    assert any("NLOS spikes rejected" in msg for msg in fails)


def test_spikes_accepted_during_startup_are_counted_not_failed():
    data, lines, outputs, record = estimate_case("estimate-nlos")
    early = (data["range_stamps"] < START + checks.STARTUP_S) & data["nlos"]
    assert early.any()
    record["ingest"] = [ok or bool(e) for ok, e in zip(record["ingest"], early)]
    accepted = sum(record["ingest"])
    outputs["metrics.txt"].update(ranges_accepted=accepted, ranges_rejected=lines - accepted)
    fails, figures = checks.check_estimate("estimate-nlos", data, lines, outputs, record)
    assert fails == []
    assert figures["startup_spikes_accepted"] == int(early.sum())


def test_wrong_bias_fails():
    data, lines, outputs, record = estimate_case("estimate-nlos")
    biased = int(np.flatnonzero(data["true_bias"])[0])
    outputs["biases.log"][biased, 2] += 0.5
    fails, _ = checks.check_estimate("estimate-nlos", data, lines, outputs, record)
    assert any(msg.startswith(f"anchor {biased} bias") for msg in fails)


def test_consistent_batch_outputs_pass():
    data, outputs = batch_case()
    fails, figures = checks.check_batch(data, outputs)
    assert fails == []
    assert figures["batch_rmse_m"] == 0.0


def test_batch_not_converged_fails():
    data, outputs = batch_case()
    outputs["metrics.txt"]["converged"] = 0
    fails, _ = checks.check_batch(data, outputs)
    assert any("converged: 0" in msg for msg in fails)


def test_batch_missing_a_state_fails():
    data, outputs = batch_case()
    outputs["batch.log"] = outputs["batch.log"][:-1]
    outputs["metrics.txt"]["states"] -= 1
    fails, _ = checks.check_batch(data, outputs)
    assert any(msg.startswith("batch states") for msg in fails)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_noiseless_odometry_composes_back_to_truth(name):
    data = gen.make(gen.WORKLOADS[name], seed=1, noise=False)
    assert np.max(np.abs(data["dead_reckoning"] - data["truth_pos"])) < 1e-9


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    wl = short("estimate-nlos")
    a, b, c = gen.make(wl, 3), gen.make(wl, 3), gen.make(wl, 4)
    assert np.array_equal(a["ranges"], b["ranges"])
    assert not np.array_equal(a["ranges"], c["ranges"])
    # the startup prefix is the same on every seed
    head = a["range_stamps"] < wl.fixed_s
    assert np.array_equal(a["ranges"][head], c["ranges"][head])


def test_batch_inputs_do_not_depend_on_the_seed():
    wl = gen.WORKLOADS["batch-small"]
    a, b = gen.make(wl, 3), gen.make(wl, 4)
    for key in ("ranges", "nlos", "odom_p", "odom_R"):
        assert np.array_equal(a[key], b[key])


def test_times_are_scaled_by_the_mean_speed_of_their_process():
    ref = run.REFERENCE_WORK_S
    # half the time at the reference speed, half at half of it: mean speed 0.75
    result = {"wall_s": 4.0, "reference_work_s": [ref, 2 * ref]}
    assert run.speed(result) == pytest.approx(0.75)
    assert run.normalised(result, "wall_s") == pytest.approx(3.0)
    with pytest.raises(RuntimeError):
        run.speed({"wall_s": 4.0, "reference_work_s": []})
