"""The benchmark's own tests: every workload at reduced size, timed and traced.

Run from the repository root with ``python -m pytest benchmarks``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / SPEC["command"][1]), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_prints_every_metric_and_passes_every_check(workload, trace):
    completed = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--small")
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(metric["name"] in line and line.endswith(" " + metric["unit"]) for line in lines), metric
    report = json.loads(next(line for line in lines if line.startswith("report: "))[len("report: "):])
    assert report["problems"] == []
    assert report["fail_ratio"] == 0
    for key in ("nproc", "cpu", "python", "numpy", "blas", "blas_threads"):
        assert report["environment"][key] is not None
    for group in report["groups"]:
        assert {"n", "d", "m", "iterations"} <= set(group)
    if trace == "1":
        assert report["trace"]["heaviest_layer"]
        assert "tracing.overhead.s" in result["metrics"]


def test_work_counters_repeat_between_runs():
    counters = []
    for _ in range(2):
        completed = run_bench("--workload", "mesh-netsim", "--seed", "9", "--seconds", "0.5", "--small")
        assert completed.returncode == 0, completed.stderr
        report_line = next(line for line in completed.stdout.splitlines() if line.startswith("report: "))
        counters.append(json.loads(report_line[len("report: "):])["counters"])
        assert json.loads(completed.stdout.strip().splitlines()[-1])["correct"] is True
    assert counters[0] == counters[1]
    assert counters[0]["netsim.messages"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_absent_hook_is_reported_not_fatal(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracer

    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + (("objective.gradient", "gossipgrad.objective", "no_such_hook", True),))
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert recorder.absent == ["gossipgrad.objective.no_such_hook"]
    finally:
        recorder.uninstall()


def test_self_time_subtracts_children():
    sys.path.insert(0, str(HERE))
    import tracer

    recorder = tracer.Tracer()

    def inner():
        return recorder.leaf("leaf", lambda: sum(range(10_000)))

    recorder.call("root", lambda: recorder.call("child", inner))
    root = recorder.roots("root")[0]
    times = recorder.self_times(root)
    total = recorder.spans[root][2] - recorder.spans[root][1]
    assert set(times) == {"root", "child", "leaf"}
    assert all(value >= 0 for value in times.values())
    assert sum(times.values()) == pytest.approx(total, rel=1e-9)
