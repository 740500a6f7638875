"""tools/output_diff.py: byte identity and per-group differences of two output files."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"

TRAJECTORY = (
    "0.200000000 1.000000000 2.000000000 0.500000000 0.000000000 0.000000000 0.000000000 1.000000000\n"
    "0.400000000 1.100000000 2.050000000 0.500000000 0.000000000 0.000000000 0.099833417 0.995004165\n"
)
BIASES = "0.200000000 3 0.051000000 0.020000000\n0.200000000 4 -0.010000000 0.030000000\n"
METRICS = (
    "bias_model: const\nstates: 301\niterations: 7\nfinal_cost: 526.757544860\n"
    "anchor_0_bias: 0.004877335\n"
)


@pytest.fixture(scope="module")
def output_diff():
    spec = importlib.util.spec_from_file_location("output_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_identical_files(output_diff, tmp_path, capsys):
    a = write(tmp_path, "a.log", TRAJECTORY)
    b = write(tmp_path, "b.log", TRAJECTORY)
    out = output_diff.compare(a, b)
    assert out["identical"] and out["differing_lines"] == 0
    assert out["max_abs_diff"] == {"stamp": 0.0, "position": 0.0, "quaternion": 0.0}
    assert output_diff.main([str(a), str(b)]) == 0
    assert "byte-identical" in capsys.readouterr().out


def test_one_perturbed_value_lands_in_its_group(output_diff, tmp_path, capsys):
    a = write(tmp_path, "a.log", TRAJECTORY)
    b = write(tmp_path, "b.log", TRAJECTORY.replace("2.050000000", "2.050000003"))
    out = output_diff.compare(a, b)
    assert not out["identical"] and out["differing_lines"] == 1
    assert out["max_abs_diff"]["position"] == pytest.approx(3e-9, rel=1e-6)
    assert out["max_abs_diff"]["stamp"] == 0.0
    assert out["max_abs_diff"]["quaternion"] == 0.0
    assert output_diff.main([str(a), str(b)]) == 1
    assert "differ on 1 of 2 lines" in capsys.readouterr().out

    a = write(tmp_path, "a_biases.log", BIASES)
    b = write(tmp_path, "b_biases.log", BIASES.replace("0.030000000", "0.030000020"))
    out = output_diff.compare(a, b)
    assert out["max_abs_diff"]["covariance"] == pytest.approx(2e-8, rel=1e-6)
    assert out["max_abs_diff"]["bias"] == 0.0


def test_lines_that_do_not_pair_up(output_diff, tmp_path):
    a = write(tmp_path, "a.log", BIASES)
    with pytest.raises(output_diff.Mismatch, match="exact fields"):
        output_diff.compare(a, write(tmp_path, "b.log", BIASES.replace(" 4 ", " 5 ")))
    with pytest.raises(output_diff.Mismatch, match="line counts"):
        output_diff.compare(a, write(tmp_path, "c.log", BIASES.splitlines(True)[0]))
    assert output_diff.main([str(a), str(tmp_path / "c.log")]) == 2


def test_metrics_files_list_each_differing_key(output_diff, tmp_path, capsys):
    a = write(tmp_path, "a.txt", METRICS)
    assert output_diff.compare(a, write(tmp_path, "same.txt", METRICS))["max_abs_diff"] == {}
    assert output_diff.main([str(a), str(tmp_path / "same.txt")]) == 0

    changed = METRICS.replace("iterations: 7", "iterations: 8").replace(
        "0.004877335", "0.004877338")
    b = write(tmp_path, "b.txt", changed)
    out = output_diff.compare(a, b)
    assert not out["identical"] and out["differing_lines"] == 2
    assert out["max_abs_diff"].keys() == {"iterations", "anchor_0_bias"}
    assert out["max_abs_diff"]["iterations"] == 1.0
    assert out["max_abs_diff"]["anchor_0_bias"] == pytest.approx(3e-9, rel=1e-6)
    capsys.readouterr()
    assert output_diff.main([str(a), str(b)]) == 1
    printed = capsys.readouterr().out
    assert "differ on 2 of 5 lines" in printed
    assert "iterations" in printed and "anchor_0_bias" in printed
    assert "final_cost" not in printed and "states" not in printed

    for text in (METRICS.replace("const", "none"), METRICS.replace("states:", "poses:"),
                 METRICS.replace("states: 301", "states: many")):
        with pytest.raises(output_diff.Mismatch):
            output_diff.compare(a, write(tmp_path, "c.txt", text))
    assert output_diff.main([str(a), str(tmp_path / "c.txt")]) == 2
