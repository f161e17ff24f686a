"""End-to-end benchmark of the G10 reproduction, with a traced per-layer run.

One command runs one workload and prints, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload tenancy-mixed --seed 1 --seconds 55 --trace 0

Every timed job is a fresh ``python3 -m repro`` interpreter with a new, empty
result cache and output directory under ``.perfbench_out/tmp/`` of the
checkout. ``--trace 0`` reports the end-to-end metrics of untraced jobs;
``--trace 1`` runs one untraced and one traced job (see ``tracer.py``) and
reports per-layer self time and counts plus the tracing overhead. Every job's
output is checked; see ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

#: Paper-scale report slice: the full paper grid takes about a minute, which
#: the benchmark's run budget cannot repeat; this slice keeps the headline
#: figure, its breakdowns and the characterization figures, and every figure
#: with cache misses starts its own process pool.
PAPER_FIGURES = "2,3,4,11,12,13,14,table1"
TENANCY_POLICIES = "g10,deepum,base_uvm,g10_host"
TENANTS = 16
#: Longest a single job may run before it is killed and counted as failed.
JOB_TIMEOUT_S = 120
#: Timed jobs per run even when ``--seconds`` is too short for them: two, so
#: the output check can compare the jobs of one run with each other.
MIN_JOBS = 2

PERF_FIELDS = (
    "events_processed", "kernels_executed", "pages_moved",
    "pte_updates", "fault_events", "eviction_stalls",
)
SSD_FIELDS = ("ssd_bytes_written", "ssd_bytes_read")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "report" or "tenancy"
    jobs: int = 1
    figures: str | None = None
    requests: int = 512


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("paper-report-cold", "report", jobs=min(2, os.cpu_count() or 1),
                 figures=PAPER_FIGURES),
        Workload("tenancy-mixed", "tenancy"),
    )
}


@dataclass
class Job:
    """One finished ``repro`` process and what it left behind."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    out_dir: Path
    cache_dir: Path
    ops: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def run_process(argv: list[str], cwd: Path, out_dir: Path) -> tuple[float, float, float, int]:
    """Run one process to completion: (wall s, CPU s, peak RSS MB, exit status).

    Its stdout and stderr go to ``<out_dir>.out`` and ``<out_dir>.err``.
    CPU and RSS come from ``wait4``, so they cover the process and every
    worker process it reaped (the report's process pools). The process leads
    its own process group, so a job that times out is killed with its pool.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cwd / "default-cache")
    with open(out_dir.with_suffix(".out"), "wb") as out, open(out_dir.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(JOB_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


class Run:
    """State of one benchmark invocation: its temporary root and its jobs."""

    def __init__(self, workload: Workload, seed: int, figures: str | None, requests: int | None):
        self.workload = workload
        self.seed = seed
        self.figures = figures if figures is not None else workload.figures
        self.requests = requests if requests is not None else workload.requests
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "tmp"))
        self.count = 0

    def fresh_dir(self, stem: str) -> Path:
        self.count += 1
        path = self.root / f"{self.count:02d}-{stem}"
        path.mkdir()
        return path

    def repro_args(self, cache_dir: Path, out_dir: Path) -> list[str]:
        wl = self.workload
        if wl.kind == "tenancy":
            return [
                "run", "--model", "bert", "--scale", "paper", "--tenants", str(TENANTS),
                "--requests", str(self.requests), "--arrival-load", "0.6",
                "--tenant-policies", TENANCY_POLICIES, "--seed", str(self.seed),
                "--jobs", "1", "--cache-dir", str(cache_dir),
                "--output", str(out_dir / "tenancy-run.json"),
            ]
        return ["report", "--scale", "paper", "--jobs", str(wl.jobs), "--figures", self.figures,
                "--cache-dir", str(cache_dir), "--output-dir", str(out_dir)]

    def setup(self) -> float:
        """Time the set-up every job repeats: a fresh interpreter plus ``import
        repro`` and registry bootstrap, as ``repro run --list-policies``."""
        out_dir = self.fresh_dir("setup")
        wall, _, _, status = run_process(
            [sys.executable, "-m", "repro", "run", "--list-policies"], self.root, out_dir
        )
        if status != 0:
            raise SystemExit(f"repro failed to start (status {status}):\n{self.stderr(out_dir)}")
        return wall

    def job(self, traced_dir: Path | None = None) -> Job:
        """One timed job in a fresh interpreter, with a fresh cache and output dir."""
        out_dir = self.fresh_dir("traced" if traced_dir else "job")
        cache_dir = self.fresh_dir("cache")
        args = self.repro_args(cache_dir, out_dir)
        if traced_dir is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(TRACER), "--out", str(traced_dir),
                    "--run-id", f"{self.workload.name}-seed{self.seed}", "--", *args]
        wall, cpu, rss, status = run_process(argv, self.root, out_dir)
        return Job(wall, cpu, rss, status, out_dir, cache_dir)

    def stderr(self, out_dir: Path) -> str:
        """The last lines a process wrote to stderr (its log sits beside ``out_dir``)."""
        text = out_dir.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-20:])

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# -- output checks -------------------------------------------------------------


def artifact_names(figures: str) -> list[str]:
    """Artifact file names of a report of ``figures``."""
    ids = [fid.strip() for fid in figures.split(",") if fid.strip()]
    return [f"figure{fid}.json" if fid.isdigit() else f"{fid}.json" for fid in ids]


def artifact_ops(job: Job, names: list[str]) -> dict[str, int]:
    """Ops per artifact: its distinct cells (at least 1) from ``report.json``."""
    ops = dict.fromkeys(names, 1)
    try:
        manifest = json.loads((job.out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return ops
    for figure in manifest.get("figures", []):
        if figure.get("artifact") in ops:
            ops[figure["artifact"]] = max(int(figure.get("distinct", 0)), 1)
    return ops


def read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def check_report(run: Run, jobs: list[Job]) -> None:
    """Every artifact is JSON and byte-identical across the jobs of this
    invocation. A mismatch fails that artifact's cells."""
    names = artifact_names(run.figures)
    reference: dict[str, bytes] = {}
    for job in jobs:
        ops = artifact_ops(job, names)
        job.ops = sum(ops.values())
        for name in names:
            text = read_bytes(job.out_dir / name)
            if job.status != 0 or text is None:
                ok = False
            else:
                ok = _is_json(text) and reference.setdefault(name, text) == text
            if not ok:
                job.failed += ops[name]
                job.notes.append(f"{name} failed the output check")


def _is_json(text: bytes) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def check_tenancy(run: Run, jobs: list[Job]) -> None:
    """All ``TENANTS x requests`` request latencies are present and finite,
    and every value of the output is identical across the jobs of this
    invocation. A tenant that differs fails its requests."""
    expected = TENANTS * run.requests
    reference: dict[str, dict] = {}
    for job in jobs:
        job.ops = expected
        try:
            result = json.loads((job.out_dir / "tenancy-run.json").read_text(encoding="utf-8"))
            tenants = result["tenants"]
        except (OSError, ValueError, KeyError):
            job.failed = expected
            job.notes.append("tenancy output missing or unreadable")
            continue
        served = 0
        shared = {key: value for key, value in result.items() if key != "tenants"}
        if reference.setdefault("(shared)", shared) != shared:
            tenants = {}  # fairness, makespan or perf drifted: no request counts
        for name, tenant in tenants.items():
            latencies = tenant.get("latencies", [])
            complete = len(latencies) == run.requests and all(
                isinstance(x, (int, float)) and math.isfinite(x) for x in latencies
            )
            if complete and reference.setdefault(name, tenant) == tenant:
                served += len(latencies)
        if job.status != 0 or len(tenants) != TENANTS:
            served = 0
        job.failed = expected - served
        if job.failed:
            job.notes.append(f"{job.failed} of {expected} requests failed the output check")


def check(run: Run, jobs: list[Job]) -> None:
    if run.workload.kind == "tenancy":
        check_tenancy(run, jobs)
    else:
        check_report(run, jobs)
    for job in jobs:
        for note in job.notes:
            log(f"{job.out_dir.name}: {note}")


# -- deterministic counts ------------------------------------------------------


def cache_counts(job: Job) -> dict[str, int]:
    """Machine-independent totals behind a job: the result cache's bytes and
    the perf and SSD counters of every cached simulation result, plus the
    multi-tenant result's own perf counters."""
    totals = dict.fromkeys(("cache.dir_bytes", "cache.entries"), 0)
    totals.update(dict.fromkeys(PERF_FIELDS + SSD_FIELDS, 0))
    for path in sorted(job.cache_dir.rglob("*.json")):
        totals["cache.dir_bytes"] += path.stat().st_size
        totals["cache.entries"] += 1
        payload = json.loads(path.read_text(encoding="utf-8")).get("payload", {})
        if payload.get("kind") == "simulation":
            result = payload["result"]
            for name in PERF_FIELDS:
                totals[name] += int(result["perf"].get(name, 0))
            for name in SSD_FIELDS:
                totals[name] += int(result.get(name, 0))
    tenancy = job.out_dir / "tenancy-run.json"
    if tenancy.exists():
        perf = json.loads(tenancy.read_text(encoding="utf-8")).get("perf", {})
        for name in PERF_FIELDS:
            totals[f"tenancy.{name}"] = int(perf.get(name, 0))
    return totals


# -- metrics ---------------------------------------------------------------------

UNITS = {"_s": "s", "_ratio": "fraction", "_share": "fraction", "_bytes": "B"}
BYTE_COUNTS = {"cache.bytes_written", "cache.bytes_read", "ssd.bytes_written", "ssd.bytes_read"}


def unit_of(name: str) -> str:
    if name in BYTE_COUNTS:
        return "B"
    if name == "sim.host_us_per_event":
        return "us"
    if name == "ssd.write_amplification":
        return "ratio"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def end_to_end(jobs: list[Job], setup_times: list[float]) -> dict[str, dict]:
    """The run's end-to-end metrics.

    The timings are means over all the run's jobs, so each spans the whole
    measured window: on a shared host the speed of the same code drifts by
    tens of percent from one job to the next, and a median or minimum of a
    few jobs follows single jobs where the mean evens them out.
    """
    attempted = sum(job.ops for job in jobs)
    failed = sum(job.failed for job in jobs)
    wall = sum(job.wall_s for job in jobs)
    return {
        "wall_s": {"value": wall / len(jobs), "unit": "s"},
        "cpu_s": {"value": sum(job.cpu_s for job in jobs) / len(jobs), "unit": "s"},
        "ops_per_s": {"value": sum(job.ops for job in jobs) / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(j.rss_mb for j in jobs), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "success_rate": {"value": 1 - failed / attempted, "unit": "fraction"},
    }


def per_layer(plain: Job, traced: Job, trace_dir: Path) -> dict[str, dict]:
    layers = json.loads((trace_dir / "layers.json").read_text(encoding="utf-8"))
    plain_counts, traced_counts = cache_counts(plain), cache_counts(traced)
    unstable = sorted(k for k in plain_counts if plain_counts[k] != traced_counts.get(k))
    for name in unstable:
        log(f"count {name} differs between two runs: {plain_counts[name]} vs {traced_counts[name]}")
    values = dict(layers)
    values["cache.dir_bytes"] = plain_counts["cache.dir_bytes"]
    values["report.artifact_bytes"] = sum(path.stat().st_size for path in plain.out_dir.iterdir())
    values["counts.unstable"] = len(unstable)
    values["job.startup_s"] = traced.wall_s - layers["job.span_s"]
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    values["trace.untraced_wall_s"] = plain.wall_s
    return {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(values.items())}


def keep_trace(run: Run, trace_dir: Path) -> Path:
    target = OUT / "traces" / f"{run.workload.name}-seed{run.seed}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(trace_dir / "trace.json", target)
    return target


def measure(run: Run, seconds: float, trace: bool) -> dict:
    if trace:
        plain = run.job()
        trace_dir = run.fresh_dir("trace")
        traced = run.job(traced_dir=trace_dir)
        jobs = [plain, traced]
        check(run, jobs)
        metrics = per_layer(plain, traced, trace_dir)
        log(f"trace written to {keep_trace(run, trace_dir)}")
    else:
        # Time a set-up before each job, so the set-up timings spread over the
        # run like the jobs. No set-up and job start that would, at the mean
        # pace so far, end after ``seconds``.
        setup_times: list[float] = []
        jobs: list[Job] = []
        start = time.perf_counter()
        while len(jobs) < MIN_JOBS or (time.perf_counter() - start) * (1 + 1 / len(jobs)) <= seconds:
            setup_times.append(run.setup())
            jobs.append(run.job())
            log(f"job {len(jobs)}: {jobs[-1].wall_s:.3f} s wall, {jobs[-1].cpu_s:.3f} s CPU")
        check(run, jobs)
        metrics = end_to_end(jobs, setup_times)
    attempted = sum(job.ops for job in jobs)
    failed = sum(job.failed for job in jobs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark one workload of the G10 reproduction.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="tenancy arrival seed")
    parser.add_argument("--seconds", type=float, default=55,
                        help="time to measure: jobs start while they are expected to end within it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced job, per-layer metrics")
    parser.add_argument("--figures", default=None,
                        help="paper-report-cold: run only these figure ids (quick checks)")
    parser.add_argument("--requests", type=int, default=None,
                        help="tenancy-mixed: requests per tenant (quick checks)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {SRC}; run from a full checkout")
        return 2
    run = Run(workload, args.seed, args.figures, args.requests)
    try:
        result = measure(run, args.seconds, bool(args.trace))
    finally:
        run.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
