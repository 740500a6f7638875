"""Benchmark of the two smoothers: seeded logs replayed through ``raloc``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload estimate-small --seed 1 --seconds 15 --trace 0

For one workload and seed it makes the inputs in a separate process
(``gen.py``), then runs whole rounds until ``--seconds`` are spent; the
last round may run past them. A round is one fresh measured process (``probe.py``) running
``raloc estimate --mode full`` or ``raloc batch --bias const`` on those
inputs; its outputs are checked against the generator's truth
(``checks.py``). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, and ``SETUP_ROUNDS`` more fresh
processes each time one cold set-up alone; with ``--trace 1`` the run makes
one untraced round, then traced rounds, and reports the per-layer metrics.
Other figures and any failed check go to standard error.

Every time it reports is quoted at a reference speed of the machine. The
measured process is pinned to one CPU, and a side thread times a fixed piece
of interpreter work on it every 50 ms (``probe.SpeedMeter``). Each time the
process measured is multiplied by its mean speed relative to the reference
(``speed``), so the machine's slow and fast phases, which last seconds to
minutes and change wall time by up to 1.8x, cancel out.

An operation is one ``Ufls.update`` that returns an estimate (``estimate``
workloads; it fails when its flags hold ``not_converged`` or ``diverged``)
or the batch solve (``batch-small``; it fails when it does not converge).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

TIME_LIMIT_S = 170.0
SETUP_ROUNDS = 4  # set-up-only processes of an untraced run, besides its rounds
# One BLAS thread: the measured process then needs one CPU and the rest of
# the machine absorbs everything else. With one thread per CPU, OpenBLAS's
# spinning workers take a second CPU for little gain on window-sized systems,
# and the run slows whenever either CPU is busy.
BLAS_THREADS = "1"
# glibc's initial mmap threshold, fixed. Left dynamic, it rises after the
# first large free, and the batch solve's peak RSS then read 261 or 285 MB
# on identical processes; fixed, it reads 255.5 to 257.2 MB.
MMAP_THRESHOLD = "131072"
FAIL_FLAGS = {"not_converged", "diverged"}
# probe.reference_work's time on this machine's fast phase (2 CPUs, Xeon at
# 2.0 GHz, Python 3.11.7): the speed that normalised times are quoted at
REFERENCE_WORK_S = 0.5e-3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_s", "s"),
                         ("_m", "m"), ("_ratio", "ratio"), ("_mean", "count")):
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median(values) -> float:
    return float(statistics.median(values))


def speed(result: dict) -> float:
    """The measured process's mean speed relative to the reference speed.

    The speed meter samples at even intervals, so the mean of
    ``REFERENCE_WORK_S / sample`` weighs every stretch of the process alike.
    A sample that the scheduler stretched lowers it only a little.
    """
    samples = result["reference_work_s"]
    if not samples:
        raise RuntimeError("the measured process recorded no speed sample")
    return statistics.fmean(REFERENCE_WORK_S / k for k in samples)


def normalised(result: dict, key: str) -> float:
    """``result[key]``, a time, in seconds at the reference speed."""
    return result[key] * speed(result)


class Run:
    """One invocation: inputs, rounds of measured processes, their checks."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.name = workload
        self.workload = gen.WORKLOADS[workload]
        self.seed = seed
        self.started = time.perf_counter()
        self.dir = ROOT / ".perfbench_runs" / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
            MALLOC_MMAP_THRESHOLD_=MMAP_THRESHOLD,
        )
        self.failures: list[str] = []
        self.rounds: list[dict] = []
        self.setups: list[dict] = []  # what the set-up-only processes saw

    def remaining(self) -> float:
        left = TIME_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0.0:
            raise TimeoutError(f"over the {TIME_LIMIT_S:g} s limit of one run")
        return left

    def make_inputs(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        out = subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", self.name,
             "--seed", str(self.seed), "--out", str(self.dir / "inputs")],
            check=True, capture_output=True, text=True, timeout=self.remaining(),
        )
        self.summary = json.loads(out.stdout.strip().splitlines()[-1])
        self.truth = dict(np.load(self.dir / "inputs" / "truth.npz"))

    def spawn(self, name: str, mode: str) -> dict:
        """One fresh measured process in ``mode``; what the probe saw."""
        inputs = self.dir / "inputs"
        estimate = self.workload.command == "estimate"
        options = ["--mode", "full"] if estimate else ["--bias", "const"]
        argv = [self.workload.command, str(inputs / "dataset.log"),
                "--config", str(inputs / "config.yaml"), *options,
                "--out", str(self.dir / f"{name}_")]
        result_path = self.dir / f"{name}_result.json"
        with open(self.dir / f"{name}_stderr.txt", "w", encoding="utf-8") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), repr(t_spawn), str(result_path),
                 mode, repr(checks.STARTUP_S), *argv],
                env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                timeout=self.remaining(),
            )
        if proc.returncode != 0 or not result_path.is_file():
            tail = (self.dir / f"{name}_stderr.txt").read_text(encoding="utf-8")[-2000:]
            raise RuntimeError(f"measured process exited {proc.returncode}:\n{tail}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def setup_round(self) -> None:
        """One fresh process that times a cold set-up and stops there."""
        result = self.spawn(f"s{len(self.setups)}", "setup")
        if result["exit_code"] != 0:
            self.failures.append(f"set-up round: raloc exited {result['exit_code']}")
        self.setups.append(result)

    def round(self, traced: bool) -> dict:
        """One measured process, its checks, and the operations it attempted."""
        i = len(self.rounds)
        prefix = str(self.dir / f"r{i}_")
        estimate = self.workload.command == "estimate"
        result = self.spawn(f"r{i}", "traced" if traced else "plain")
        fails = [] if result["exit_code"] == 0 else [f"raloc exited {result['exit_code']}"]
        outputs, missing = checks.load_outputs(
            prefix, checks.ESTIMATE_OUTPUTS if estimate else checks.BATCH_OUTPUTS
        )
        fails += missing
        if not missing and estimate:
            more, result["figures"] = checks.check_estimate(
                self.name, self.truth, self.summary["range_records"], outputs, result
            )
            fails += more
        elif not missing:
            more, result["figures"] = checks.check_batch(self.truth, outputs)
            fails += more
        if estimate:
            returned = [u for u in result["updates"] if u[2]]
            result["attempted"] = len(returned)
            result["failed"] = sum(1 for u in returned if FAIL_FLAGS & set(u[3]))
        else:
            result["attempted"] = 1
            result["failed"] = 0 if result["oracle_converged"] else 1
        self.failures += [f"round {i}: {msg}" for msg in fails]
        self.rounds.append(result)
        return result

    def measure(self, seconds: float, traced: bool) -> list[dict]:
        """Whole rounds until ``seconds`` are spent; the last one may run past them."""
        start = time.perf_counter()
        done = []
        while True:
            done.append(self.round(traced))
            if time.perf_counter() - start >= seconds:
                return done

    def update_seconds(self, rounds) -> list[float]:
        """``Ufls.update`` latencies after startup, pooled over rounds."""
        out = []
        for r in rounds:
            returned = [u for u in r["updates"] if u[2]]
            steady = returned[0][0] + checks.STARTUP_S if returned else 0.0
            k = speed(r)
            out += [k * u[1] for u in returned if u[0] >= steady]
        return out

    def figures(self) -> dict:
        """Accuracy figures; a check fails unless every round gave the same."""
        first = self.rounds[0].get("figures", {})
        if any(r.get("figures", {}) != first for r in self.rounds[1:]):
            self.failures.append("accuracy figures differ between rounds of one run")
        return first

    def layer_figures(self, plain) -> dict:
        """Latencies of untraced rounds and the checks' accuracy figures."""
        fig = self.figures()
        ops = self.update_seconds(plain)
        wfls = [speed(r) * s for r in plain for s in r["wfls_updates"]]
        corrects = [speed(r) * s for r in plain for s in r["corrects"]]
        return {
            "ufls.update_mean_ms": 1e3 * statistics.fmean(ops) if ops else 0.0,
            "ufls.update_p50_ms": 1e3 * percentile(ops, 50),
            "ufls.update_p99_ms": 1e3 * percentile(ops, 99),
            "ufls.update_max_ms": 1e3 * max(ops, default=0.0),
            "wfls.update_p50_ms": 1e3 * percentile(wfls, 50),
            "wfls.correct_p50_us": 1e6 * percentile(corrects, 50),
            "check.pose_rmse_m": fig.get("corrected_rmse_m", fig.get("batch_rmse_m", 0.0)),
            "check.dead_reckoning_rmse_m": fig.get("dead_reckoning_rmse_m", 0.0),
            "check.bias_rmse_m": fig.get("bias_rmse_m", 0.0),
            "check.corrected_max_d2_m": fig.get("corrected_max_d2_m", 0.0),
            "check.spikes_rejected_ratio": fig.get("spikes_rejected", 0.0),
            "check.clean_rejected_ratio": fig.get("clean_rejected", 0.0),
            "check.startup_spikes_accepted": fig.get("startup_spikes_accepted", 0),
        }

    def end_to_end(self, plain) -> dict:
        return {
            "setup_s": median([normalised(r, "setup_s") for r in self.setups + plain]),
            "wall_s": median([normalised(r, "wall_s") for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }

    def raw(self, plain) -> dict:
        """The measured times before normalisation, and the meter's figures."""
        samples = [k for r in plain for k in r["reference_work_s"]]
        return {
            "raw_setup_s": median([r["setup_s"] for r in self.setups + plain]),
            "raw_wall_s": median([r["wall_s"] for r in plain]),
            "reference_work_p50_ms": 1e3 * median(samples),
            "reference_work_samples": len(samples),
        }

    def per_layer(self, plain, traced) -> dict:
        def value(r, key):
            timed = unit_of(key) in ("s", "ms", "us")
            return r["layers"][key] * (speed(r) if timed else 1.0)

        out = {key: median([value(r, key) for r in traced]) for key in traced[0]["layers"]}
        out["trace.overhead_s"] = (median([normalised(r, "wall_s") for r in traced])
                                   - median([normalised(r, "wall_s") for r in plain]))
        return out

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "raloc" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'raloc'} is missing", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        run.make_inputs()
        if args.trace:
            plain = [run.round(traced=False)]
            traced = run.measure(args.seconds, traced=True)
            figures = run.layer_figures(plain)
            info = {**figures, **run.raw(plain)}
            metrics = {**run.per_layer(plain, traced), **figures}
        else:
            for _ in range(SETUP_ROUNDS):
                run.setup_round()
            plain = run.measure(args.seconds, traced=False)
            info = {**run.layer_figures(plain), **run.raw(plain)}
            metrics = run.end_to_end(plain)
    finally:
        run.cleanup()

    attempted = sum(r["attempted"] for r in run.rounds)
    failed = sum(r["failed"] for r in run.rounds)
    for msg in run.failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(run.rounds),
        "gen_s": run.summary["gen_s"], "blas_threads": run.env["OPENBLAS_NUM_THREADS"],
        **info,
    }), file=sys.stderr)
    units = END_TO_END if not args.trace else {k: unit_of(k) for k in metrics}
    print(json.dumps({
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
