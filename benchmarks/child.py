"""One fresh interpreter of a benchmark run: set-up, then solves in a closed loop.

Phases:
  setup   set up once and report the set-up time.
  timed   set up, solve back to back for the given seconds with no wrappers
          installed, read the peak RSS, then make one traced solve (untimed)
          for the work counters.
  traced  set up under tracing, solve untraced for half the seconds and traced
          for the other half; report per-layer self times and counters.

In the setup and timed phases a speed probe (speed.py) runs from the first
line on, and every time is reported both as wall time and rescaled to the
probe's reference speed.

Usage: python3 benchmarks/child.py SPEC_JSON PHASE SECONDS RESULT_JSON
"""

import sys
import time

T0 = time.perf_counter()

import speed  # noqa: E402

PROBE = speed.SpeedProbe()
if sys.argv[2] != "traced":
    PROBE.start()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gossipgrad  # noqa: E402

if not Path(gossipgrad.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"gossipgrad was imported from {gossipgrad.__file__}, not from this checkout")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

IMPORTED = time.perf_counter()

# Per-layer metrics of the traced run, with units.
PER_LAYER = {
    "gossip.spectral_gap.s": "s",
    "gossip.spectral_gap.rel_err": "ratio",
    "gossip.schedule.s": "s",
    "gossip.matrix_at.calls": "count",
    "gossip.matrix_at.s": "s",
    "gossip.mix.s": "s",
    "gossip.mix.agent_rounds": "count",
    "gossip.mix.bytes": "B",
    "objective.problem.s": "s",
    "objective.gradient.calls": "count",
    "objective.gradient.s": "s",
    "algorithm.m": "count",
    "algorithm.run.s": "s",
    "algorithm.centralized.s": "s",
    "netsim.run.s": "s",
    "netsim.round.s": "s",
    "netsim.messages": "count",
    "netsim.audit.s": "s",
    "netsim.ledger.mb": "MB",
    "analysis.fixed_point.s": "s",
    "analysis.lyapunov.s": "s",
    "analysis.decrease.s": "s",
    "analysis.violations": "count",
    "analysis.min_margin": "energy",
    "trace.mb": "MB",
    "config.load.s": "s",
    "cli.run.s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "B",
    "tracing.overhead.s": "s",
}
# Work counters that must repeat exactly between runs of the same code.
COUNTERS = (
    "objective.gradient.calls",
    "gossip.mix.agent_rounds",
    "gossip.matrix_at.calls",
    "netsim.messages",
    "algorithm.m",
)
# Span names fed by hooks inside the program (some are also fed by the benchmark's own calls).
HOOKED = {metric for metric, *_ in tracing.HOOKS}
IDLE_SHARE = 0.05  # a layer predicted idle must hold less than this share of solve self time


def layer_of(span_name: str) -> str:
    head = span_name.split(".")[0]
    return "config/cli" if head in ("config", "cli") else head


def environment() -> dict:
    import ctypes
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for library in sorted(libraries):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(ctypes.CDLL(library), symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads = function()
                break
    cpu = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def solve_loop(case, seconds: float, tr, workdir: Path, report: dict):
    """Closed loop: each solve starts when the previous one has ended; stops before overrunning.

    Returns the (rescaled, wall) time of every solve.
    """
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(t[1] for t in times) <= seconds:
        began = time.perf_counter()
        try:
            report["checks"] = tr.call("bench.solve", workloads.solve, case, tr, workdir)
        except Exception as exc:  # every failure of a solve is counted, not raised
            report["failures"].append(f"{type(exc).__name__}: {exc}")
        times.append(PROBE.rescale(began, time.perf_counter()))
    return times


def per_solve_counters(tr, root: int) -> dict:
    counts = dict(tr.counts.get(root, {}))
    calls = tr.leaf_calls(root)
    counts["objective.gradient.calls"] = calls.get("objective.gradient", 0)
    counts["gossip.matrix_at.calls"] = calls.get("gossip.matrix_at", 0)
    return counts


def counters_of(tr, roots) -> tuple[dict, bool]:
    """Counters of the first traced solve, and whether every traced solve repeated them."""
    per_solve = [{key: per_solve_counters(tr, r).get(key, 0) for key in COUNTERS} for r in roots]
    return per_solve[0], all(c == per_solve[0] for c in per_solve)


def layer_metrics(tr, case, report: dict) -> dict:
    setup_root = tr.roots("bench.setup")[0]
    roots = tr.roots("bench.solve")
    setup_self = tr.self_times(setup_root)
    solve_self = [tr.self_times(r) for r in roots]
    names = set(setup_self) | {name for s in solve_self for name in s}
    mean_self = {name: statistics.fmean(s.get(name, 0.0) for s in solve_self) for name in names}
    per_solve = [per_solve_counters(tr, r) for r in roots]
    counts = {key: statistics.fmean(c.get(key, 0) for c in per_solve) for key in set().union(*per_solve)}

    values = {}
    for metric in PER_LAYER:
        if metric.endswith(".s"):
            span = metric[:-2]
            values[metric] = setup_self.get(span, 0.0) + mean_self.get(span, 0.0)
    rounds = counts.get("netsim.rounds", 0)
    values["netsim.round.s"] = mean_self.get("netsim.run", 0.0) / rounds if rounds else 0.0
    for key in COUNTERS + ("gossip.mix.bytes", "netsim.ledger.mb", "trace.mb"):
        values[key] = counts.get(key, 0)
    gap = report["spectral_gap"]
    values["gossip.spectral_gap.rel_err"] = abs(gap["program"] - gap["lapack"]) / gap["lapack"]
    checks = report.get("checks") or {}
    values["analysis.violations"] = checks.get("violations", 0)
    values["analysis.min_margin"] = checks.get("min_margin", 0.0)
    values["cli.emit.bytes"] = checks.get("emit_bytes", 0)
    values["tracing.overhead.s"] = report["traced_solve_s"] - report["untraced_solve_s"]

    # Per-solve self time by layer, and the heavy/idle prediction.
    layers = {}
    for name, seconds in mean_self.items():
        if name.startswith("bench."):
            continue
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + seconds
    total = sum(layers.values()) or 1.0
    heaviest = max(layers, key=layers.get) if layers else None
    workload = workloads.WORKLOADS[case.spec["workload"]]
    idle_shares = {layer: layers.get(layer, 0.0) / total for layer in workload.idle}
    # A metric is absent when every hook feeding it is gone and nothing else recorded it.
    absent_metrics = sorted(
        name
        for span in HOOKED
        if all(f"{owner}.{attr}" in tr.absent for metric, owner, attr, _ in tracing.HOOKS if metric == span)
        for name in (span + ".s", span + ".calls")
        if name in values and values[name] == 0
    )
    report["trace"] = {
        "layer_self_s_per_solve": layers,
        "heaviest_layer": heaviest,
        "predicted_heavy": workload.heavy,
        "predicted_idle_shares": idle_shares,
        "prediction_confirmed": heaviest == workload.heavy and all(v < IDLE_SHARE for v in idle_shares.values()),
        "absent_hooks": tr.absent,
        "absent_metrics": absent_metrics,
        "not_on_path": sorted(m for m, v in values.items() if v == 0 and m not in absent_metrics),
        "traced_solves": len(roots),
    }
    report["counters"], report["counters_repeat"] = counters_of(tr, roots)
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER.items()}


def main(argv) -> int:
    spec_path, phase, seconds, result_path = argv[1], argv[2], float(argv[3]), Path(argv[4])
    spec = json.loads(Path(spec_path).read_text())
    workdir = Path(spec_path).parent
    report = {"phase": phase, "failures": []}
    traced = tracing.Tracer() if phase == "traced" else None
    tr = traced or tracing.NullTracer()
    if traced:
        traced.install()

    inputs = workloads.load_inputs(spec)
    began = time.perf_counter()
    case = tr.call("bench.setup", workloads.setup, spec, inputs, tr)
    del inputs
    ended = time.perf_counter()
    # Loading the inputs between import and set-up is the benchmark's, not the program's.
    imported, imported_wall = PROBE.rescale(T0, IMPORTED)
    built, built_wall = PROBE.rescale(began, ended)
    report["setup_s"], report["setup_wall_s"] = imported + built, imported_wall + built_wall
    if traced:
        traced.uninstall()
    if phase == "setup":
        result_path.write_text(json.dumps(report))
        return 0

    report["spectral_gap"] = {
        "program": max(case.gaps),
        "lapack": max(workloads.lapack_gap(W) for W in case.matrices),
    }
    workloads.prepare_oracle(case)
    untraced = tracing.NullTracer()
    if phase == "timed":
        times = solve_loop(case, seconds, untraced, workdir, report)
        PROBE.stop()
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["solve_times"] = [t[0] for t in times]
        report["solve_wall_times"] = [t[1] for t in times]
        counting = tracing.Tracer()
        counting.install()
        try:
            counting.call("bench.solve", workloads.solve, case, counting, workdir)
        finally:
            counting.uninstall()
        report["counters"], _ = counters_of(counting, counting.roots("bench.solve"))
    else:
        plain = solve_loop(case, seconds / 2, untraced, workdir, report)
        traced.install()
        try:
            timed = solve_loop(case, seconds / 2, traced, workdir, report)
        finally:
            traced.uninstall()
        report["untraced_solve_s"] = statistics.median(t[1] for t in plain)
        report["traced_solve_s"] = statistics.median(t[1] for t in timed)
        report["solve_times"] = [t[1] for t in plain + timed]
        report["per_layer"] = layer_metrics(traced, case, report)
        spans = ROOT / ".bench_out" / f"spans-{spec['workload']}-seed{spec['seed']}.json"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text(json.dumps(traced.dump()))
        report["spans_file"] = str(spans.relative_to(ROOT))
    report["groups"] = [
        {"name": g["name"], "n": g["n"], "d": g["d"], "m": g["params"].m, "iterations": g["iterations"],
         "sigma": g["params"].sigma, "rho": g["params"].rho}
        for g in case.groups
    ]
    report["environment"] = environment()
    result_path.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv)
    finally:
        PROBE.stop()  # a pending timer would kill the interpreter on its way out
    sys.exit(code)
