"""The benchmark's traced probe runs both commands end to end.

``perfbench/probe.py`` finds the functions and classes it wraps by name, so
renaming one in ``raloc`` breaks only the traced benchmark run. Each case
runs the probe once on a 4 s log and checks that the command succeeded and
that the per-layer counters saw its work.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from raloc import sim

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


@pytest.fixture(scope="module")
def short_log(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe")
    dataset = sim.simulate(sim.preset_scenario("small", seed=1, duration=4.0))
    sim.write_dataset(dataset, root)
    anchors = [
        {"id": a.id, "position": [float(x) for x in a.position]}
        for a in dataset.scenario.anchors
    ]
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump({"anchors": anchors}))
    return root / "dataset.log", config


@pytest.mark.parametrize(
    "command, options", [("estimate", ["--mode", "full"]), ("batch", ["--bias", "const"])]
)
def test_traced_probe_counts_every_layer(short_log, tmp_path, command, options):
    log, config = short_log
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PROBE), repr(time.perf_counter()), str(result), "traced",
         "2.0", command, str(log), "--config", str(config), *options,
         "--out", str(tmp_path / "out_")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text(encoding="utf-8"))
    assert out["exit_code"] == 0, proc.stderr
    layers = out["layers"]
    assert layers["factors.range_evals"] > 0
    if command == "estimate":
        assert layers["wfls.update_calls"] > 0
        assert layers["wfls.correct_calls"] > 0
    if command == "batch":
        assert layers["sim.batch_dim"] > 0
