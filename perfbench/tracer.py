"""In-memory span recorder that traces one ``repro`` CLI job layer by layer.

Run as a script, it executes one ``repro`` command with tracing on::

    PYTHONPATH=src python3 perfbench/tracer.py --out DIR -- report --scale ci --jobs 1

Before the command runs, the public entry points of each layer (workload
build, planner, event loop, uvm, ssd, result (de)serialization, result cache,
sweep, reporting, tenancy) are wrapped *at run time*; nothing under ``src/``
is edited. Every call is timed on a stack of open calls: its self time is its
duration minus the time its wrapped callees cover, so each traced second is
charged to exactly one layer. Calls of the coarse layers are also kept as
spans (name, start, end, parent span, run id); the per-migration and per-FTL
calls (``uvm.*``, ``ssd.ftl_*``, ``sweep.key``) are too many to keep one by
one and are only aggregated.

Process-pool workers are forked from the traced process and inherit the
wrappers: each worker starts empty after the fork and writes its spans and
totals to ``DIR`` when it exits; the parent merges those files.

When the command ends the recorder writes, once:

* ``DIR/trace.json`` — the kept spans as Chrome trace-event JSON (open it in
  Perfetto or ``chrome://tracing``; one track per process);
* ``DIR/layers.json`` — per-layer self time and counts
  (:func:`layer_metrics`), the source of the benchmark's ``--trace 1`` metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing.util
import os
import sys
import time
from collections import Counter
from pathlib import Path

#: Calls made too often to keep as individual spans (aggregated only).
AGGREGATED = ("uvm.submit", "uvm.submit_batch", "ssd.ftl_write", "ssd.ftl_trim", "sweep.key")


class SpanRecorder:
    """Spans and per-name totals of one process, kept in memory until dumped.

    A span is ``[name, start_ns, end_ns, parent_span, self_ns]``; an open
    call is a frame ``[name, start_ns, covered_ns, span_index]``.
    """

    def __init__(self, run_id: str, out_dir: Path):
        self.run_id = run_id
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.frames: list[list] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.plan_cache_base = _plan_cache_counters()

    def _parent_span(self) -> int:
        for frame in reversed(self.frames):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def begin(self, name: str) -> None:
        now = time.perf_counter_ns()
        span = -1
        if name not in AGGREGATED:
            span = len(self.spans)
            self.spans.append([name, now, 0, self._parent_span(), 0])
        self.frames.append([name, now, 0, span])

    def end(self) -> None:
        now = time.perf_counter_ns()
        name, start, covered, span = self.frames.pop()
        duration = now - start
        self.self_ns[name] += duration - covered
        self.calls[name] += 1
        if self.frames:
            self.frames[-1][2] += duration
        if span >= 0:
            self.spans[span][2] = now
            self.spans[span][4] = duration - covered

    def add_interval(self, name: str, start: int, end: int) -> None:
        """A span that is not a call (a pool's lifetime), inside the open call."""
        self.spans.append([name, start, end, self._parent_span(), end - start])
        self.self_ns[name] += end - start
        self.calls[name] += 1
        if self.frames:
            self.frames[-1][2] += end - start

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as a call of ``name``.

        ``before(recorder, args, kwargs)`` runs first; its return value is
        handed to ``after(recorder, token, args, kwargs, result)``, which runs
        once the call is closed. Hook work lands in the caller's self time.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(recorder, args, kwargs) if before is not None else None
            recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end()
            if after is not None:
                after(recorder, token, args, kwargs, result)
            return result

        return traced

    def state(self) -> dict:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "plan_cache": {
                key: value - self.plan_cache_base.get(key, 0)
                for key, value in _plan_cache_counters().items()
            },
        }

    # -- pool workers ------------------------------------------------------

    def after_fork(self) -> None:
        """Start empty in a forked pool worker and dump the state at its exit."""
        self._reset()
        multiprocessing.util.Finalize(self, self.dump_worker, exitpriority=100)

    def dump_worker(self) -> None:
        path = self.out_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(self.state()), encoding="utf-8")


def _plan_cache_counters() -> dict[str, int]:
    from repro.core.plan_cache import snapshot_counters

    return snapshot_counters()


# -- wrapping ---------------------------------------------------------------


def _rebind(original, replacement) -> None:
    """Replace every module-level reference to ``original`` in ``repro``.

    Modules bind imported functions by name (``from .harness import
    build_workload``), so patching the defining module alone would miss them.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(recorder, module, attr, name, **hooks) -> None:
    original = getattr(module, attr)
    _rebind(original, recorder.wrap(name, original, **hooks))


def _patch_method(recorder, cls, attr, name, **hooks) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__, **hooks)))
    else:
        setattr(cls, attr, recorder.wrap(name, raw, **hooks))


def _memo_size(recorder, args, kwargs) -> int:
    from repro.experiments import harness

    return len(harness._CACHE)


def _count_build(recorder, size_before, args, kwargs, result) -> None:
    from repro.experiments import harness

    recorder.counts["workload.builds"] += len(harness._CACHE) > size_before


def _count_simulation(recorder, token, args, kwargs, result) -> None:
    perf, counts = result.perf, recorder.counts
    counts["sim.events"] += perf.events_processed
    counts["sim.kernels"] += perf.kernels_executed
    counts["sim.model_failures"] += bool(result.failed)
    counts["uvm.pages_moved"] += perf.pages_moved
    counts["uvm.pte_updates"] += perf.pte_updates
    counts["uvm.fault_events"] += perf.fault_events
    counts["uvm.eviction_stalls"] += perf.eviction_stalls
    counts["ssd.bytes_written"] += int(result.ssd_bytes_written)
    counts["ssd.bytes_read"] += int(result.ssd_bytes_read)
    if result.ssd_bytes_written > 0:
        counts["ssd.writing_runs"] += 1
        counts["ssd.write_amplification_sum"] += result.ssd_write_amplification


def _count_put(recorder, token, args, kwargs, path) -> None:
    recorder.counts["cache.bytes_written"] += path.stat().st_size


def _count_get(recorder, token, args, kwargs, payload) -> None:
    if payload is not None:
        cache, key = args[0], args[1]
        recorder.counts["cache.hits"] += 1
        recorder.counts["cache.bytes_read"] += cache.path_for(key).stat().st_size


def _count_sweep(recorder, token, args, kwargs, result) -> None:
    stats = args[0].last_stats
    recorder.counts["sweep.cells"] += stats.get("cells", 0)
    recorder.counts["sweep.executed"] += stats.get("executed", 0)


def _count_tenancy(recorder, token, args, kwargs, outcome) -> None:
    recorder.counts["tenancy.requests"] += len(outcome.records)


def _count_solo(recorder, args, kwargs) -> None:
    if any(frame[0] == "tenancy.scenario" for frame in recorder.frames):
        recorder.counts["tenancy.solo_runs"] += 1


def _patch_pools(recorder) -> None:
    """One ``sweep.pool`` span per process pool, from creation to shutdown."""
    from concurrent.futures import ProcessPoolExecutor

    init, shutdown = ProcessPoolExecutor.__init__, ProcessPoolExecutor.shutdown

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._perfbench_start = time.perf_counter_ns()
        recorder.counts["sweep.pool_worker_slots"] += self._max_workers

    @functools.wraps(shutdown)
    def traced_shutdown(self, *args, **kwargs):
        shutdown(self, *args, **kwargs)
        start = self.__dict__.pop("_perfbench_start", None)
        if start is not None:
            recorder.add_interval("sweep.pool", start, time.perf_counter_ns())

    ProcessPoolExecutor.__init__ = traced_init
    ProcessPoolExecutor.shutdown = traced_shutdown


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points for the rest of this process."""
    import repro.cli  # noqa: F401  (imports every module the CLI path binds)
    from repro import api
    from repro.core import eviction, prefetch, scheduler
    from repro.experiments import cache, harness, reporting, sweep
    from repro.experiments import tenancy as tenancy_experiments
    from repro.sim import engine, executor, results
    from repro.sim import tenancy as tenancy_sim
    from repro.ssd import ftl, ssd
    from repro.uvm import migration

    _patch_function(recorder, harness, "build_workload", "workload.build",
                    before=_memo_size, after=_count_build)
    _patch_method(recorder, scheduler.MigrationPlanner, "plan_from_report", "planner.plan")
    _patch_method(recorder, eviction.SmartEvictionScheduler, "schedule", "planner.schedule")
    _patch_method(recorder, prefetch.SmartPrefetcher, "optimize", "planner.prefetch")
    _patch_function(recorder, engine, "simulate", "sim.simulate")
    _patch_method(recorder, executor.ExecutionSimulator, "run", "sim.execute",
                  after=_count_simulation)
    _patch_method(recorder, migration.MigrationEngine, "submit", "uvm.submit")
    _patch_method(recorder, migration.MigrationEngine, "submit_batch", "uvm.submit_batch")
    _patch_method(recorder, ssd.SSDDevice, "__init__", "ssd.setup")
    _patch_method(recorder, ftl.FlashTranslationLayer, "write_run", "ssd.ftl_write")
    _patch_method(recorder, ftl.FlashTranslationLayer, "trim_run", "ssd.ftl_trim")
    _patch_method(recorder, results.SimulationResult, "to_dict", "results.encode")
    _patch_method(recorder, results.SimulationResult, "from_dict", "results.decode")
    _patch_method(recorder, cache.ResultCache, "put", "cache.put", after=_count_put)
    _patch_method(recorder, cache.ResultCache, "get", "cache.get", after=_count_get)
    _patch_method(recorder, cache.ResultCache, "has", "cache.has")
    _patch_method(recorder, sweep.SweepRunner, "run", "sweep.run", after=_count_sweep)
    _patch_method(recorder, sweep.SweepCell, "cache_key", "sweep.key")
    _patch_function(recorder, sweep, "execute_cell", "sweep.cell")
    _patch_function(recorder, sweep, "_execute_cell_dict", "sweep.worker_cell")
    _patch_pools(recorder)
    _patch_function(recorder, reporting, "generate_report", "report.generate")
    _patch_function(recorder, tenancy_sim, "simulate_tenancy", "tenancy.simulate",
                    after=_count_tenancy)
    _patch_method(recorder, tenancy_experiments.MultiTenantScenario, "run", "tenancy.scenario")
    _patch_method(recorder, api.Scenario, "run", "api.scenario_run", before=_count_solo)
    multiprocessing.util.register_after_fork(recorder, SpanRecorder.after_fork)


# -- analysis -----------------------------------------------------------------


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer self time (s) and counts over the job and its pool workers."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    plan_cache: Counter = Counter()
    for process in processes:
        self_s.update({name: ns / 1e9 for name, ns in process["self_ns"].items()})
        calls.update(process["calls"])
        counts.update(process["counts"])
        plan_cache.update(process["plan_cache"])

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    job_spans = processes[0]["spans"]
    pool_slot_s = sum((s[2] - s[1]) / 1e9 for s in job_spans if s[0] == "sweep.pool") * ratio(
        counts["sweep.pool_worker_slots"], calls["sweep.pool"]
    )
    worker_busy_s = sum(
        (s[2] - s[1]) / 1e9
        for process in processes[1:] for s in process["spans"] if s[0] == "sweep.worker_cell"
    )
    builds = counts["workload.builds"]
    lookups = sum(plan_cache.values())
    execute_s = self_s["sim.execute"] + self_s["sim.simulate"]
    root = job_spans[0]
    return {
        "workload.build_s": self_s["workload.build"],
        "workload.builds": builds,
        "workload.memo_hit_ratio": ratio(calls["workload.build"] - builds, calls["workload.build"]),
        "planner.plan_s": self_s["planner.plan"],
        "planner.schedule_s": self_s["planner.schedule"],
        "planner.prefetch_s": self_s["planner.prefetch"],
        "planner.plans": calls["planner.plan"],
        "plan_cache.lookups": lookups,
        "plan_cache.hit_ratio": ratio(lookups - plan_cache["misses"], lookups),
        "sim.execute_s": execute_s,
        "sim.runs": calls["sim.execute"],
        "sim.events": counts["sim.events"],
        "sim.kernels": counts["sim.kernels"],
        "sim.host_us_per_event": ratio(execute_s * 1e6, counts["sim.events"]),
        "sim.model_failures": counts["sim.model_failures"],
        "uvm.migrate_s": self_s["uvm.submit"] + self_s["uvm.submit_batch"],
        "uvm.migrations": calls["uvm.submit"],
        "uvm.pages_moved": counts["uvm.pages_moved"],
        "uvm.pte_updates": counts["uvm.pte_updates"],
        "uvm.fault_events": counts["uvm.fault_events"],
        "uvm.eviction_stalls": counts["uvm.eviction_stalls"],
        "ssd.setup_s": self_s["ssd.setup"],
        "ssd.setups": calls["ssd.setup"],
        "ssd.ftl_s": self_s["ssd.ftl_write"] + self_s["ssd.ftl_trim"],
        "ssd.ftl_writes": calls["ssd.ftl_write"],
        "ssd.ftl_trims": calls["ssd.ftl_trim"],
        "ssd.write_amplification": ratio(
            counts["ssd.write_amplification_sum"], counts["ssd.writing_runs"]
        ),
        "ssd.bytes_written": counts["ssd.bytes_written"],
        "ssd.bytes_read": counts["ssd.bytes_read"],
        "results.encode_s": self_s["results.encode"],
        "results.encodes": calls["results.encode"],
        "results.decode_s": self_s["results.decode"],
        "results.decodes": calls["results.decode"],
        "cache.put_s": self_s["cache.put"],
        "cache.puts": calls["cache.put"],
        "cache.bytes_written": counts["cache.bytes_written"],
        "cache.get_s": self_s["cache.get"] + self_s["cache.has"],
        "cache.gets": calls["cache.get"],
        "cache.bytes_read": counts["cache.bytes_read"],
        "cache.hit_ratio": ratio(counts["cache.hits"], calls["cache.get"]),
        "sweep.runs": calls["sweep.run"],
        "sweep.pools": calls["sweep.pool"],
        "sweep.pool_busy_share": ratio(worker_busy_s, pool_slot_s),
        "sweep.dedup_ratio": ratio(
            counts["sweep.cells"] - counts["sweep.executed"], counts["sweep.cells"]
        ),
        "sweep.key_s": self_s["sweep.key"],
        "sweep.run_s": sum(
            self_s[name]
            for name in ("sweep.run", "sweep.cell", "sweep.worker_cell", "api.scenario_run")
        ),
        "sweep.pool_wait_s": self_s["sweep.pool"],
        "report.render_s": self_s["report.generate"],
        "tenancy.simulate_s": self_s["tenancy.simulate"] + self_s["tenancy.scenario"],
        "tenancy.requests": counts["tenancy.requests"],
        "tenancy.solo_runs": counts["tenancy.solo_runs"],
        "job.span_s": (root[2] - root[1]) / 1e9,
        "job.unattributed_s": self_s["job"],
        "trace.spans": sum(len(process["spans"]) for process in processes),
        "trace.worker_processes": len(processes) - 1,
    }


def chrome_trace(processes: list[dict], run_id: str) -> dict:
    """Spans as Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    events = []
    for role, process in zip(["job"] + ["pool worker"] * len(processes), processes):
        pid = process["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
                       "args": {"name": f"{role} {pid}"}})
        for index, (name, start, end, parent, own) in enumerate(process["spans"]):
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": pid,
                "args": {"span": index, "parent": parent, "self_us": own / 1e3, "run": run_id},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"run": run_id}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one repro command with layer tracing.")
    parser.add_argument("--out", required=True, type=Path, help="directory for the trace files")
    parser.add_argument("--run-id", default="run", help="id stamped on every span")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the repro arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    args.out.mkdir(parents=True, exist_ok=True)

    recorder = SpanRecorder(args.run_id, args.out)
    install(recorder)
    from repro.cli import main as repro_main

    recorder.begin("job")
    try:
        status = repro_main(command)
    finally:
        recorder.end()
        sys.stdout.flush()
    processes = [recorder.state()]
    for path in sorted(args.out.glob("worker-*.json")):
        processes.append(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
    (args.out / "layers.json").write_text(
        json.dumps(layer_metrics(processes), indent=2, sort_keys=True), encoding="utf-8"
    )
    (args.out / "trace.json").write_text(
        json.dumps(chrome_trace(processes, args.run_id)), encoding="utf-8"
    )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
