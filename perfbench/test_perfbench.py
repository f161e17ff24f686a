"""Self-test of the benchmark on tiny slices; runs in well under a minute.

    python3 -m pytest perfbench/test_perfbench.py

The repository's own test run does not collect this file: ``pyproject.toml``
limits collection to ``tests/`` and ``benchmarks/``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Tiny slices of the two workloads: a paper-scale report of Figure 2 and
#: Table 1 (9 cells), and 16 tenants of 8 requests each.
QUICK = {
    "paper-report-cold": ["--figures", "2,table1"],
    "tenancy-mixed": ["--requests", "8"],
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def driver():
    return _load("run")


def run_driver(driver, capsys, workload: str, *extra: str) -> dict:
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", *QUICK[workload], *extra]
    assert driver.main(argv) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(QUICK))
def test_every_metric_prints_with_its_name_and_unit(driver, capsys, workload, trace):
    result = run_driver(driver, capsys, workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace == "0":
        assert result["metrics"]["success_rate"]["value"] == 1.0
    else:
        assert result["metrics"]["counts.unstable"]["value"] == 0


def test_planted_corrupt_artifact_counts_as_failed(driver, capsys, monkeypatch):
    real_job = driver.Run.job

    jobs = []

    def corrupting_job(self, traced_dir=None):
        job = real_job(self, traced_dir)
        jobs.append(job)
        if len(jobs) == 2:
            (job.out_dir / "table1.json").write_text("{}", encoding="utf-8")
        return job

    monkeypatch.setattr(driver.Run, "job", corrupting_job)
    result = run_driver(driver, capsys, "paper-report-cold")
    # The second job's Table 1 (5 cells) differs from the first job's; its
    # Figure 2 (4 cells) still matches.
    assert (result["attempted"], result["failed"], result["correct"]) == (18, 5, False)
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(13 / 18)


def test_tenancy_outputs_that_differ_between_runs_count_as_failed(driver, capsys, monkeypatch):
    real_job = driver.Run.job
    jobs = []

    def drifting_job(self, traced_dir=None):
        job = real_job(self, traced_dir)
        jobs.append(job)
        if len(jobs) == 2:
            path = job.out_dir / "tenancy-run.json"
            result = json.loads(path.read_text(encoding="utf-8"))
            tenant = next(iter(result["tenants"].values()))
            tenant["latencies"][0] += 1.0
            path.write_text(json.dumps(result), encoding="utf-8")
        return job

    monkeypatch.setattr(driver.Run, "job", drifting_job)
    result = run_driver(driver, capsys, "tenancy-mixed")
    assert result["attempted"] == 2 * 16 * 8
    assert result["failed"] == 8


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tenancy-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_is_duration_minus_child_coverage(tmp_path):
    tracer = _load("tracer")
    recorder = tracer.SpanRecorder("unit", tmp_path)
    inner = recorder.wrap("inner", lambda: sum(range(20000)))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    (name, start, end, parent, own), *children = recorder.spans
    assert (name, parent) == ("outer", -1)
    assert [child[0] for child in children] == ["inner"] * 3
    assert all(child[3] == 0 for child in children)
    child_ns = sum(child[2] - child[1] for child in children)
    assert own == end - start - child_ns == recorder.self_ns["outer"]
    assert recorder.self_ns["inner"] == child_ns
    assert recorder.calls == {"outer": 1, "inner": 3}
