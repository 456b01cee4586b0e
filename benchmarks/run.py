"""gossipgrad benchmark: certified-solve time, set-up time and memory per workload.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seconds 5          # every workload, one table
    python3 benchmarks/run.py --workload all --seconds 1 --small  # reduced sizes, as the tests use

Every run happens in fresh child interpreters (benchmarks/child.py), so set-up
time and peak memory belong to that run. With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics. Set-up and solve times are medians rescaled to a reference
machine speed (benchmarks/speed.py); the raw wall times are in the report line.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout and nowhere else; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_SAMPLES = 5  # fresh interpreters per run whose set-up time is measured; the timed one included
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def code_hash() -> str:
    """Hash of the program, its configs and the benchmark: runs of the same code share it."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.ini")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_child(spec_path: Path, phase: str, seconds: float, deadline: float) -> dict:
    result_path = spec_path.with_name(f"result-{phase}.json")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    completed = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path), phase, str(seconds), str(result_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if completed.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{phase} child exited {completed.returncode}:\n{completed.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def check_counters(workload: str, seed: int, size: str, counters: dict) -> str | None:
    """Compare with an earlier run of the same code and seed; returns a mismatch message or None."""
    OUT.mkdir(exist_ok=True)
    registry_path = OUT / "counters.json"
    registry = json.loads(registry_path.read_text()) if registry_path.exists() else {}
    key = f"{code_hash()}|{workload}|seed={seed}|{size}"
    previous = registry.setdefault(key, counters)
    if previous != counters:
        return f"work counters differ from an earlier run of the same code: {previous} vs {counters}"
    tmp = registry_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, registry_path)
    return None


def tail_percentile(times: list) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it, if there is one."""
    if len(times) < 20:
        return None
    percentile = math.floor(100 * (1 - 10 / len(times)))
    return {"percentile": percentile, "value": statistics.quantiles(times, n=100)[percentile - 1]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec = workloads.prepare(name, seed, workdir, ROOT, small=small)
        spec_path = workdir / "spec.json"
        if trace:
            child = run_child(spec_path, "traced", seconds, deadline)
        else:
            setups = [run_child(spec_path, "setup", 0, deadline) for _ in range(SETUP_SAMPLES - 1)]
            child = run_child(spec_path, "timed", seconds, deadline)
            setups.append(child)
            child["setup_samples"] = [s["setup_s"] for s in setups]
            child["setup_wall_samples"] = [s["setup_wall_s"] for s in setups]
            child["solve_wall_s"] = statistics.median(child["solve_wall_times"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(child["solve_times"])
    failures = child["failures"]
    problems = list(failures)
    mismatch = check_counters(name, seed, spec["size"], child["counters"])
    if mismatch:
        problems.append(mismatch)
    if trace and not child["counters_repeat"]:
        problems.append("work counters differ between the traced solves of this run")
    if trace:
        metrics = child["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(child["setup_samples"]),
            "solve_s": statistics.median(child["solve_times"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "pass_ratio": (attempted - len(failures)) / attempted,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    report = {
        "workload": name,
        "why": spec["why"],
        "note": workloads.WORKLOADS[name].note,
        "seed": seed,
        "size": spec["size"],
        "seconds": seconds,
        "closed_loop": "one process, one solve at a time",
        "time_basis": "solve_s and setup_s are medians rescaled to the reference speed of benchmarks/speed.py; "
        "the *_wall_* entries are raw wall times",
        "solves": attempted,
        "solve_tail": tail_percentile(child["solve_times"]),
        "fail_ratio": len(failures) / attempted,
        "problems": problems,
        "groups": child["groups"],
        "counters": child["counters"],
        "checks": child.get("checks"),
        "spectral_gap": child["spectral_gap"],
        "environment": child["environment"],
    }
    for key in ("setup_samples", "setup_wall_samples", "solve_times", "solve_wall_times", "solve_wall_s", "trace",
                "untraced_solve_s", "traced_solve_s", "spans_file"):
        if key in child:
            report[key] = child[key]
    return {
        "report": report,
        "result": {"correct": not problems, "attempted": attempted, "failed": len(failures), "metrics": metrics},
    }


def print_table(report: dict, metrics: dict):
    groups = "; ".join(
        f"{g['name']}: n={g['n']} d={g['d']} m={g['m']} iterations={g['iterations']}" for g in report["groups"]
    )
    print(f"# {report['workload']} (seed {report['seed']}, {report['solves']} solves): {groups}")
    print(f"#   why: {report['why']}")
    for key, metric in metrics.items():
        print(f"#   {key:32s} {metric['value']:>16.6g} {metric['unit']}")
    trace = report.get("trace")
    if trace:
        verdict = "confirmed" if trace["prediction_confirmed"] else "not confirmed"
        print(
            f"#   heaviest layer per solve: {trace['heaviest_layer']} (predicted {trace['predicted_heavy']}, "
            f"idle shares {trace['predicted_idle_shares']}: {verdict}); tracing overhead "
            f"{report['traced_solve_s'] - report['untraced_solve_s']:.4g} s per solve"
        )
        if trace["absent_metrics"]:
            print(f"#   absent hooks: {trace['absent_hooks']} -> {trace['absent_metrics']}")
    for problem in report["problems"]:
        print(f"#   FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gossipgrad" / "__init__.py").is_file():
        print(f"no gossipgrad sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        try:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark run of {name} failed: {exc}", file=sys.stderr)
            return 1
        print_table(outcome["report"], outcome["result"]["metrics"])
        print("report: " + json.dumps(outcome["report"], sort_keys=True))
        results[name] = outcome["result"]
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
