"""The measured process: runs one ``raloc`` command and times it from outside.

``run.py`` starts one fresh process per round:

    python3 perfbench/probe.py <t_spawn> <result.json> <mode> <startup_s> <raloc args...>

``t_spawn`` is the parent's ``time.perf_counter()`` (CLOCK_MONOTONIC, shared by
all processes) taken just before the spawn, so ``setup_s`` and ``wall_s`` count
from process start. The probe imports ``raloc`` from ``src/`` beside this
directory, wraps public functions of its modules from here, calls
``raloc.cli.main`` and writes what it saw to ``result.json``. ``startup_s``
is the startup window after the first estimate (``checks.STARTUP_S``).

The mode is one of three:

- ``setup``: the command stops where the estimator (``cli.run_pipeline``) or
  the batch solve (``sim.batch_oracle``) would receive its input, so the
  process times one cold set-up and nothing else;
- ``plain``: the whole command with the recorders below;
- ``traced``: the whole command with the recorders and the spans below.

In every mode the probe pins itself to one CPU, and ``SpeedMeter`` times a
fixed loop on it every ``METER_PERIOD_S`` (``reference_work_s`` in the
result), from which ``run.py`` quotes every time at a reference speed.

The wrapping levels:

- always: recorders on ``Ufls.update``, ``Ufls.ingest_range``,
  ``Wfls.update`` and ``Wfls.correct`` (a ``perf_counter`` pair and one
  append per call), and on ``cli.run_pipeline`` and ``sim.batch_oracle``
  (the end of set-up, and whether the batch solve converged);
- traced only: a span around each public function of
  ``io``, ``cli``, ``ufls``, ``wfls``, ``solver``, ``factors`` (each factor
  type's ``evaluate``), ``preintegration`` and ``sim``, call counters on
  ``lie.exp``, ``lie.log`` and ``lie.right_jacobian_inv``, and a
  ``gc.callbacks`` hook. A module that binds a function by name gets the
  wrapper in that binding too. Spans are kept in memory (name, parent, start,
  end) and reduced to per-layer metrics after the command has returned.
"""

import os
import sys
import threading
import time

T_SPAWN = float(sys.argv[1])
# One CPU for the whole process, so the speed meter's thread times the CPU
# that the command runs on.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from array import array  # noqa: E402
from operator import length_hint  # noqa: E402
from pathlib import Path  # noqa: E402

perf_counter = time.perf_counter
STARTUP_S = float(sys.argv[4])  # updates this long after the first estimate are startup
METER_PERIOD_S = 0.05


def reference_work(n: int = 2000) -> float:
    """A fixed piece of interpreter work: float arithmetic, dict and list ops."""
    acc = 0.0
    table = {}
    items = []
    for i in range(n):
        x = (i * 0.5 + 1.0) / (i + 1.0)
        acc += x * x - acc * 1e-3
        table[i & 63] = acc
        items.append(x)
        if len(items) > 32:
            items.sort()
            items.clear()
    return acc + len(table)


class SpeedMeter:
    """The machine's speed while the command runs, from a side thread.

    Every ``METER_PERIOD_S`` the thread times ``reference_work`` by its own
    CPU clock, so waiting for the GIL does not count; the work is the same in
    every round and every version of the program. ``run.py`` scales the
    command's times by the mean of ``REFERENCE_WORK_S / sample``.
    """

    def __init__(self):
        self.samples = array("d")
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        clock, samples = time.thread_time, self.samples
        while not self.done.wait(METER_PERIOD_S):
            t = clock()
            reference_work()
            samples.append(clock() - t)

    def stop(self) -> list:
        self.done.set()
        self.thread.join()
        return list(self.samples)


class SetupDone(BaseException):
    """Stops a ``setup`` round where the program's input is ready.

    A ``BaseException``, so the command's own error handling lets it pass.
    """


class Recorder:
    """Per-call records of the operations the benchmark scores."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.updates = []  # (now, seconds, returned an estimate, flags)
        self.ingest = []  # Ufls.ingest_range results, in call order
        self.wfls_updates = []
        self.corrects = []
        self.setup_end = None
        self.oracle_converged = False

    def install(self, cli, sim, ufls, wfls, rebind):
        rec = self

        def timed(fn, sink):
            def wrapper(*args, **kwargs):
                t = perf_counter()
                out = fn(*args, **kwargs)
                sink.append(perf_counter() - t)
                return out
            return wrapper

        update = ufls.Ufls.update

        def ufls_update(self, now):
            t = perf_counter()
            est = update(self, now)
            dt = perf_counter() - t
            flags = sorted(est.flags) if est is not None else None
            rec.updates.append((now, dt, est is not None, flags))
            return est

        ingest = ufls.Ufls.ingest_range

        def ingest_range(self, z):
            ok = ingest(self, z)
            rec.ingest.append(ok)
            return ok

        run_pipeline = cli.run_pipeline

        def pipeline(*args, **kwargs):
            rec.setup_end = perf_counter()
            if rec.setup_only:
                raise SetupDone
            return run_pipeline(*args, **kwargs)

        batch_oracle = sim.batch_oracle

        def oracle(*args, **kwargs):
            rec.setup_end = perf_counter()
            if rec.setup_only:
                raise SetupDone
            out = batch_oracle(*args, **kwargs)
            rec.oracle_converged = bool(out.report.converged)
            return out

        ufls.Ufls.update = ufls_update
        ufls.Ufls.ingest_range = ingest_range
        wfls.Wfls.update = timed(wfls.Wfls.update, self.wfls_updates)
        wfls.Wfls.correct = timed(wfls.Wfls.correct, self.corrects)
        rebind(run_pipeline, pipeline)
        rebind(batch_oracle, oracle)


class Tracer:
    """Spans in flat arrays: name id, parent index, start and end stamps."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, object] = {}
        self.stack = [-1]
        self.counts: dict[str, list] = {}
        self.gc = {"t": 0.0, "gen2": 0, "pause": 0.0, "max": 0.0}

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, attr=None):
        """``fn`` inside a span; ``attr(args, result)`` is kept with the span."""
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, attrs = self.stack, self.attrs

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if attr is not None:
                attrs[idx] = attr(args, out)
            return out

        return wrapper

    def add(self, name, t_start, t_end):
        """A top-level span timed by the caller."""
        self.name.append(self._id(name))
        self.parent.append(-1)
        self.start.append(t_start)
        self.end.append(t_end)

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def on_gc(self, phase, info):
        g = self.gc
        if phase == "start":
            g["t"] = perf_counter()
            return
        pause = perf_counter() - g["t"]
        g["pause"] += pause
        g["max"] = max(g["max"], pause)
        if info["generation"] == 2:
            g["gen2"] += 1


def _lines(args, _out):
    rows = args[1]
    return len(rows) if hasattr(rows, "__len__") else 0


def install_tracer(tracer, mods, rebind):
    """Spans around the public functions of each module, from the outside."""
    cli, io, sim, ufls, wfls = mods["cli"], mods["io"], mods["sim"], mods["ufls"], mods["wfls"]
    solver, factors, lie, pre = mods["solver"], mods["factors"], mods["lie"], mods["preintegration"]
    wrap = tracer.wrap

    def method(cls, name, span, attr=None):
        setattr(cls, name, wrap(span, getattr(cls, name), attr))

    def function(module, name, span, attr=None):
        fn = getattr(module, name)
        rebind(fn, wrap(span, fn, attr))

    read_log = io.read_log

    def eager_read_log(*args, **kwargs):
        return iter(list(read_log(*args, **kwargs)))

    # parsed inside the span; the caller still gets an iterator
    rebind(read_log, wrap("io.read_log", eager_read_log, lambda a, out: length_hint(out)))
    function(cli, "read_dataset", "cli.read_dataset")
    function(io, "load_config", "io.load_config")
    function(io, "write_trajectory", "io.write_trajectory", _lines)
    function(io, "write_metrics", "io.write_metrics", _lines)
    function(cli, "_write_biases", "io.write_biases", _lines)
    function(cli, "run_pipeline", "cli.run_pipeline")

    def update_attr(args, est):
        return (args[1], est is not None, est is not None and "not_converged" in est.flags)

    method(ufls.Ufls, "update", "ufls.update", update_attr)
    method(ufls.Ufls, "ingest_range", "ufls.ingest_range", lambda a, ok: ok)
    method(ufls.Ufls, "ingest_odometry", "ufls.ingest_odometry")
    function(ufls, "multilaterate", "ufls.multilaterate")
    method(wfls.Wfls, "update", "wfls.update")
    method(wfls.Wfls, "correct", "wfls.correct")

    function(solver, "optimize", "solver.optimize",
             lambda a, rep: (rep.iterations, rep.converged))
    method(solver.FactorGraph, "linearize", "solver.linearize",
           lambda a, lin: (lin.H.shape[0], len(lin.factors)))
    function(solver, "marginalize", "solver.marginalize")
    function(solver, "marginal_covariances", "solver.marginal_covariances")

    for cls, kind in (
        (factors.RangeFactor, "range"),
        (factors.RangeFactorFixedBias, "range"),
        (factors.OdometryFactor, "odometry"),
        (factors.PriorFactor, "prior"),
        (wfls.VelocityPriorFactor, "prior"),
        (solver.MarginalPrior, "marginal_prior"),
        (ufls.BiasWalkFactor, "bias_walk"),
        (factors.WnoaFactor, "wnoa"),
        (factors.OffsetMeasurementFactor, "offset"),
    ):
        method(cls, "evaluate", f"factors.{kind}")

    for name in ("exp", "log", "right_jacobian_inv"):
        fn = getattr(lie, name)
        rebind(fn, tracer.counter(f"lie.{name}", fn))

    method(pre.OdometryAccumulator, "cut", "preintegration.cut")
    function(pre, "relative_motion", "preintegration.relative_motion")
    function(pre, "accumulate", "preintegration.accumulate")

    def oracle_attr(args, out):
        lin = out.report.linearization
        return (int(lin.H.shape[0]) if lin is not None else 0, out.report.iterations)

    function(sim, "batch_oracle", "sim.batch_oracle", oracle_attr)
    function(cli, "main", "cli.main")
    gc.callbacks.append(tracer.on_gc)


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer totals, self times and counts from the recorded spans."""
    import numpy as np

    names = tracer.names
    name = np.frombuffer(tracer.name, dtype=np.uint16).astype(int)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def nid(n):
        return names.index(n) if n in names else -2

    def mask(n):
        return name == nid(n)

    def calls(n):
        return int(mask(n).sum())

    def total(n):
        return float(dur[mask(n)].sum())

    def self_s(n):
        return float(own[mask(n)].sum())

    def attrs(n):
        return [tracer.attrs[i] for i in np.flatnonzero(mask(n))]

    def under(n, p):
        return np.flatnonzero(mask(n) & (parent_name == nid(p)))

    opt_iters = {i: tracer.attrs[i][0] for i in np.flatnonzero(mask("solver.optimize"))}
    upd = np.flatnonzero(mask("ufls.update"))
    returned = [i for i in upd if tracer.attrs[i][1]]
    t_init = tracer.attrs[returned[0]][0] if returned else 0.0
    startup = {i for i in upd if tracer.attrs[i][0] < t_init + STARTUP_S}
    startup_opt = [i for i in under("solver.optimize", "ufls.update") if parent[i] in startup]
    lin = attrs("solver.linearize")
    n_opt = calls("solver.optimize")
    candidates = len(under("solver.linearize", "solver.optimize")) - n_opt
    lm_iters = sum(opt_iters.values())
    oracle = attrs("sim.batch_oracle")
    top = parent < 0
    top_level = float(dur[top].sum())

    out = {
        "io.read_s": total("io.read_log"),
        "io.records_read": sum(attrs("io.read_log")),
        "io.write_s": total("io.write_trajectory") + total("io.write_metrics")
        + total("io.write_biases"),
        "io.lines_written": sum(attrs("io.write_trajectory")) + sum(attrs("io.write_metrics"))
        + sum(attrs("io.write_biases")),
        "cli.run_pipeline_s": total("cli.run_pipeline"),
        "cli.replay_self_s": self_s("cli.run_pipeline"),
        "ufls.update_calls": calls("ufls.update"),
        "ufls.update_s": total("ufls.update"),
        "ufls.update_self_s": self_s("ufls.update"),
        "ufls.startup_s": float(sum(dur[i] for i in startup)),
        "ufls.startup_lm_iterations": sum(opt_iters[i] for i in startup_opt),
        "ufls.ingest_range_calls": calls("ufls.ingest_range"),
        "ufls.ingest_range_s": total("ufls.ingest_range"),
        "ufls.ranges_rejected": sum(1 for ok in attrs("ufls.ingest_range") if not ok),
        "ufls.ingest_odometry_s": total("ufls.ingest_odometry"),
        "ufls.not_converged": sum(1 for a in attrs("ufls.update") if a[2]),
        "solver.optimize_calls": n_opt,
        "solver.optimize_s": total("solver.optimize"),
        "solver.optimize_self_s": self_s("solver.optimize"),
        "solver.lm_iterations": lm_iters,
        "solver.lm_candidates": candidates,
        "solver.lm_accept_ratio": lm_iters / candidates if candidates else 0.0,
        "solver.linearize_calls": calls("solver.linearize"),
        "solver.linearize_s": total("solver.linearize"),
        "solver.linearize_self_s": self_s("solver.linearize"),
        "solver.system_dim_mean": float(np.mean([a[0] for a in lin])) if lin else 0.0,
        "solver.system_factors_mean": float(np.mean([a[1] for a in lin])) if lin else 0.0,
        "solver.marginalize_calls": calls("solver.marginalize"),
        "solver.marginalize_s": total("solver.marginalize"),
        "solver.covariance_calls": calls("solver.marginal_covariances"),
        "solver.covariance_s": total("solver.marginal_covariances"),
        "solver.covariance_reassemblies": len(
            under("solver.linearize", "solver.marginal_covariances")
        ),
    }
    for kind in ("range", "odometry", "prior", "marginal_prior", "bias_walk", "wnoa", "offset"):
        out[f"factors.{kind}_evals"] = calls(f"factors.{kind}")
        out[f"factors.{kind}_s"] = total(f"factors.{kind}")
    for fn in ("exp", "log", "right_jacobian_inv"):
        out[f"lie.{fn}_calls"] = tracer.counts.get(f"lie.{fn}", [0])[0]
    out.update({
        "preintegration.cut_calls": calls("preintegration.cut"),
        "preintegration.cut_s": total("preintegration.cut"),
        "preintegration.relative_motion_calls": calls("preintegration.relative_motion"),
        "preintegration.relative_motion_s": total("preintegration.relative_motion"),
        "preintegration.accumulate_s": total("preintegration.accumulate"),
        "wfls.update_calls": calls("wfls.update"),
        "wfls.update_s": total("wfls.update"),
        "wfls.update_self_s": self_s("wfls.update"),
        "wfls.lm_iterations": sum(opt_iters[i] for i in under("solver.optimize", "wfls.update")),
        "wfls.correct_calls": calls("wfls.correct"),
        "wfls.correct_s": total("wfls.correct"),
        "sim.batch_oracle_s": total("sim.batch_oracle"),
        "sim.batch_dim": oracle[0][0] if oracle else 0,
        "sim.batch_lm_iterations": oracle[0][1] if oracle else 0,
        "gc.collections_gen2": tracer.gc["gen2"],
        "gc.pause_s": tracer.gc["pause"],
        "gc.pause_max_ms": 1e3 * tracer.gc["max"],
        "trace.spans": len(dur),
        "trace.wall_s": wall,
        "trace.top_level_s": top_level,
        "trace.uncovered_s": wall - top_level,
    })
    return out


def main() -> int:
    result_path, mode = sys.argv[2], sys.argv[3]
    argv = sys.argv[5:]
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    meter = SpeedMeter()
    tracer = Tracer() if mode == "traced" else None
    t = perf_counter()
    from raloc import cli, factors, io, lie, preintegration, sim, solver, ufls, wfls

    mods = {m.__name__.rsplit(".", 1)[1]: m for m in (
        cli, factors, io, lie, preintegration, sim, solver, ufls, wfls)}
    t_import = perf_counter()

    def rebind(old, new):
        """Replace every module-level binding of ``old`` by ``new``."""
        for module in mods.values():
            for key, value in list(vars(module).items()):
                if value is old:
                    setattr(module, key, new)

    recorder = Recorder(setup_only=mode == "setup")
    recorder.install(cli, sim, ufls, wfls, rebind)
    if tracer is not None:
        tracer.add("process.start", T_SPAWN, t)
        tracer.add("import", t, t_import)
        install_tracer(tracer, mods, rebind)
        tracer.add("instrument", t_import, perf_counter())

    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    t_end = perf_counter()
    speed = meter.stop()
    result = {
        "exit_code": code,
        "setup_s": (recorder.setup_end or t_end) - T_SPAWN,
        "wall_s": t_end - T_SPAWN,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "updates": recorder.updates,
        "ingest": recorder.ingest,
        "wfls_updates": recorder.wfls_updates,
        "corrects": recorder.corrects,
        "oracle_converged": recorder.oracle_converged,
        "reference_work_s": speed,
    }
    if tracer is not None:
        gc.callbacks.remove(tracer.on_gc)
        result["layers"] = layer_metrics(tracer, t_end - T_SPAWN)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
