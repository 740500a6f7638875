"""Alternating parent/change pairs of ``perfbench/run.py``, summarised in one JSON file.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \
        --seed 101 --workload estimate-small --out BENCH_6.json

``--parent`` and ``--change`` each name a checkout directory (a clone, an
export or a ``git worktree``) or a git revision of this repository, which is
exported with ``git archive`` into a temporary directory and removed after.
A directory that is the top of a git work tree is recorded by its ``HEAD``
commit and whether its files differ from it (``dirty``), not by its path.
For every workload the script runs ``--pairs`` pairs, one untraced run of
each side per pair, on one seed; the side that runs first alternates from
pair to pair, so a slow phase of the machine falls on both sides alike.

The output file holds every JSON line the runs printed (the result line on
standard output and the summary line on standard error), per side the
median and quartiles of every metric, the pairs each side won, each side's
``src/raloc`` line count and their difference (``src_lines``), and the
machine: CPU count, Python, numpy, scipy, their BLAS, and the thread
variables. Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SIDES = ("parent", "change")


def git(*args: str, where: Path = ROOT) -> str:
    return subprocess.run(["git", "-C", str(where), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def directory_source(path: Path) -> dict:
    """Where a checkout directory came from: its commit if it is a git work tree."""
    try:
        top = git("rev-parse", "--show-toplevel", where=path)
    except subprocess.CalledProcessError:
        top = None
    if top is None or Path(top).resolve() != path:
        return {"source": str(path)}
    return {"source": "directory", "commit": git("rev-parse", "HEAD", where=path),
            "dirty": bool(git("status", "--porcelain", where=path))}


def checkout(spec: str, scratch: Path, side: str) -> tuple[Path, dict]:
    """A directory holding the program for ``spec``, and where it came from."""
    path = Path(spec)
    if (path / "perfbench" / "run.py").is_file():
        return path.resolve(), directory_source(path.resolve())
    commit = git("rev-parse", "--verify", f"{spec}^{{commit}}")
    out = scratch / side
    out.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)
    return out, {"source": spec, "commit": commit}


def src_lines(where: Path) -> int:
    """Lines in the program's source files, ``src/raloc/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (where / "src" / "raloc").glob("*.py"))


def blas_info(config) -> dict:
    """The BLAS entry of a ``show_config(mode="dicts")`` result, if it has one."""
    deps = config.get("Build Dependencies", {}) if isinstance(config, dict) else {}
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def machine() -> dict:
    try:
        scipy_config = scipy.show_config(mode="dicts")
    except TypeError:
        scipy_config = {}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "processor": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_info(np.show_config(mode="dicts")),
        "scipy_blas": blas_info(scipy_config),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "note": "perfbench/run.py sets one BLAS thread for the measured process",
    }


def last_json(text: str) -> dict | None:
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


def run_once(where: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=where, capture_output=True, text=True)
    return {
        "exit_code": proc.returncode,
        "result": last_json(proc.stdout),
        "info": last_json(proc.stderr),
        "check_failures": [ln for ln in proc.stderr.splitlines()
                           if ln.startswith("CHECK FAILED")],
    }


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = (float(x) for x in np.percentile(values, [25, 50, 75]))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def summarise(runs: list[dict], lower_is_better: set[str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs each side won."""
    names = sorted({name for r in runs if r["result"] for name in r["result"]["metrics"]})
    out = {}
    for name in names:
        by_pair: dict[int, dict] = {}
        for r in runs:
            if r["result"] and name in r["result"]["metrics"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = \
                    r["result"]["metrics"][name]["value"]
        full = [p for p in by_pair.values() if len(p) == 2]
        sign = 1.0 if name in lower_is_better else -1.0
        entry = {side: quartiles([p[side] for p in by_pair.values() if side in p])
                 for side in SIDES}
        entry["change_wins"] = sum(sign * (p["change"] - p["parent"]) < 0 for p in full)
        entry["parent_wins"] = sum(sign * (p["change"] - p["parent"]) > 0 for p in full)
        entry["pairs"] = len(full)
        entry["median_change_over_parent"] = (
            entry["change"]["median"] / entry["parent"]["median"] - 1.0
            if entry["parent"]["median"] else 0.0
        )
        out[name] = entry
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        done = [r["result"] for r in mine if r["result"]]
        out[f"{side}_failed_share"] = (
            sum(r["failed"] for r in done) / max(1, sum(r["attempted"] for r in done))
        )
        out[f"{side}_all_correct"] = len(done) == len(mine) and all(r["correct"] for r in done)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout directory or git revision")
    parser.add_argument("--change", required=True, help="checkout directory or git revision")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lower = {m["name"] for m in bench["end_to_end"] if m["better"] == "lower"}
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        dirs, sources = {}, {}
        for side in SIDES:
            dirs[side], sources[side] = checkout(getattr(args, side), scratch, side)
        lines = {side: src_lines(dirs[side]) for side in SIDES}
        lines["net"] = lines["change"] - lines["parent"]
        report = {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
                  "sources": sources, "src_lines": lines, "machine": machine(),
                  "workloads": {}}
        for workload in args.workload:
            runs = []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    started = time.time()
                    run = run_once(dirs[side], workload, args.seed, args.seconds)
                    run.update(pair=pair, side=side, started=started)
                    runs.append(run)
                    value = (run["result"] or {}).get("metrics", {})
                    print(f"{workload} pair {pair} {side}: exit {run['exit_code']} "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in value.items()),
                          file=sys.stderr, flush=True)
            report["workloads"][workload] = {"summary": summarise(runs, lower), "runs": runs}
            # rewritten after each workload, so a long session keeps what it finished
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
