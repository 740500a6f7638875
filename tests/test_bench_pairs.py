"""tools/bench_pairs.py: the pair summary on made-up run lines, and checkout sources."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(pair, side, wall, correct=True, failed=0):
    return {
        "pair": pair,
        "side": side,
        "exit_code": 0,
        "result": {
            "correct": correct,
            "attempted": 100,
            "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}},
        },
    }


def test_medians_quartiles_and_wins(bench_pairs):
    parent = [20.0, 21.0, 19.0, 22.0]
    change = [17.0, 21.5, 16.0, 18.0]
    runs = [run(k, "parent", w) for k, w in enumerate(parent)]
    runs += [run(k, "change", w, failed=1) for k, w in enumerate(change)]
    summary = bench_pairs.summarise(runs, {"wall_s"})
    wall = summary["wall_s"]
    assert wall["parent"]["median"] == 20.5
    assert wall["parent"]["q1"] == 19.75
    assert wall["parent"]["q3"] == 21.25
    assert wall["change"]["median"] == 17.5
    assert (wall["change_wins"], wall["parent_wins"], wall["pairs"]) == (3, 1, 4)
    assert wall["median_change_over_parent"] == pytest.approx(17.5 / 20.5 - 1.0)
    assert summary["parent_failed_share"] == 0.0
    assert summary["change_failed_share"] == pytest.approx(0.01)
    assert summary["parent_all_correct"] and summary["change_all_correct"]


def test_higher_is_better_and_missing_results(bench_pairs):
    runs = [run(0, "parent", 1.0), run(0, "change", 2.0), run(1, "parent", 1.0),
            {"pair": 1, "side": "change", "exit_code": 1, "result": None}]
    summary = bench_pairs.summarise(runs, set())
    assert summary["wall_s"]["change_wins"] == 1
    assert summary["wall_s"]["pairs"] == 1
    assert not summary["change_all_correct"]
    assert summary["parent_all_correct"]


def test_checkout_directory_recorded_by_commit(bench_pairs, tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    run_py = repo / "perfbench" / "run.py"
    run_py.write_text("print(1)\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    head = bench_pairs.git("rev-parse", "HEAD", where=repo)
    path, source = bench_pairs.checkout(str(repo), tmp_path / "scratch", "parent")
    assert path == repo.resolve()
    assert source == {"source": "directory", "commit": head, "dirty": False}
    run_py.write_text("print(2)\n")
    _, source = bench_pairs.checkout(str(repo), tmp_path / "scratch", "change")
    assert source == {"source": "directory", "commit": head, "dirty": True}

    export = tmp_path / "export"
    (export / "perfbench").mkdir(parents=True)
    (export / "perfbench" / "run.py").write_text("print(1)\n")
    _, source = bench_pairs.checkout(str(export), tmp_path / "scratch", "parent")
    assert source == {"source": str(export.resolve())}


def test_report_records_src_line_counts(bench_pairs, tmp_path):
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    sides = {}
    for side, sources in (("parent", ["a\nb\nc\n", "d\n"]), ("change", ["a\n"])):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(f"print({json.dumps(result)!r})\n")
        (root / "src" / "raloc").mkdir(parents=True)
        for k, text in enumerate(sources):
            (root / "src" / "raloc" / f"m{k}.py").write_text(text)
        (root / "src" / "raloc" / "notes.txt").write_text("not counted\n")
        sides[side] = root
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                             "--workload", "w", "--pairs", "1", "--seed", "1",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["src_lines"] == {"parent": 4, "change": 1, "net": -3}
    assert report["workloads"]["w"]["summary"]["wall_s"]["pairs"] == 1
