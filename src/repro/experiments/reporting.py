"""Cache-aware report generation: every figure/table as Markdown + JSON.

This module owns the canonical registry of the paper's experiments
(:data:`EXPERIMENTS`) — each entry pairs the figure's render function with the
:class:`~repro.experiments.sweep.SweepSpec` builder behind it — and two entry
points built on it:

* :func:`warm_cache` — execute one shard of the union of every experiment's
  grid into the result cache (the distributed half of a paper-scale sweep);
* :func:`generate_report` — execute the misses of the union grid in one
  runner call, then render every figure and table from the result store into
  ``<output_dir>/<id>.json`` artifacts plus a ``report.md``/``report.json``
  pair whose provenance tables say, cell by cell, which results were served
  warm and which had to be recomputed.

Because each figure is planned against the cache *before* anything runs, the
report doubles as a determinism audit: after a sharded sweep whose caches were
merged, ``generate_report(expect_warm=True)`` proves that regenerating every
figure required zero simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError, ReproError
from ..registry import EXPERIMENT_REGISTRY
from .sweep import SweepPlan, SweepRunner, SweepSpec
from .figures import (
    figure2_memory_consumption,
    figure2_spec,
    figure3_inactive_periods,
    figure3_spec,
    figure4_size_vs_inactive,
    figure4_spec,
    figure11_end_to_end,
    figure11_spec,
    figure12_breakdown,
    figure12_spec,
    figure13_kernel_slowdown,
    figure13_spec,
    figure14_traffic,
    figure14_spec,
    figure15_batch_sweep,
    figure15_spec,
    figure16_host_memory,
    figure16_spec,
    figure17_host_memory_compare,
    figure17_spec,
    figure18_ssd_bandwidth,
    figure18_spec,
    figure19_profiling_error,
    figure19_spec,
    section77_spec,
    section77_ssd_lifetime,
)
from .tables import table1_models, table1_spec, table2_configuration
from .tenancy import tenancy_contention, tenancy_spec


def jsonify(obj):
    """Recursively convert numpy arrays/scalars so ``json.dump`` accepts them."""
    if isinstance(obj, dict):
        return {str(key): jsonify(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def format_table(
    rows: Iterable[Mapping[str, object]] | Iterable[Sequence[object]],
    headers: Sequence[str] | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as an aligned, pipe-separated text table.

    Accepts either a list of dictionaries (headers inferred from the first row)
    or a list of sequences plus explicit headers.
    """
    materialized = list(rows)
    if not materialized:
        return "(no rows)"

    if isinstance(materialized[0], Mapping):
        if headers is None:
            headers = list(materialized[0].keys())
        table_rows = [[row.get(h, "") for h in headers] for row in materialized]
    else:
        if headers is None:
            raise ConfigurationError(
                "headers are required when rows are plain sequences"
            )
        table_rows = [list(row) for row in materialized]

    def render(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(v) for v in row] for row in table_rows]
    header_cells = [str(h) for h in headers]
    widths = [
        max(len(header_cells[i]), *(len(row[i]) for row in rendered)) if rendered else len(header_cells[i])
        for i in range(len(header_cells))
    ]
    lines = [
        " | ".join(cell.ljust(width) for cell, width in zip(header_cells, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in rendered:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_markdown_table(
    rows: Iterable[Mapping[str, object]] | Iterable[Sequence[object]],
    headers: Sequence[str] | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    materialized = list(rows)
    if not materialized:
        return "*(no rows)*"
    if isinstance(materialized[0], Mapping):
        if headers is None:
            headers = list(materialized[0].keys())
        table_rows = [[row.get(h, "") for h in headers] for row in materialized]
    else:
        if headers is None:
            raise ConfigurationError(
                "headers are required when rows are plain sequences"
            )
        table_rows = [list(row) for row in materialized]

    def render(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_format.format(value)
        return str(value).replace("|", "\\|")

    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in table_rows:
        lines.append("| " + " | ".join(render(v) for v in row) + " |")
    return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper: a renderer plus its sweep spec.

    ``spec`` is ``None`` for artifacts with no simulation behind them
    (Table 2 is pure configuration); those can never be sharded and are always
    "warm". ``render`` takes ``(scale, runner)`` plus an optional ``models``
    subset when ``supports_models`` is set.
    """

    id: str
    title: str
    render: Callable
    spec: Callable[..., SweepSpec] | None = None
    supports_models: bool = False


def _render_table2(scale: str = "paper", runner: SweepRunner | None = None):
    return table2_configuration()


def _register_builtin(experiment: Experiment, aliases: tuple[str, ...] = ()) -> None:
    EXPERIMENT_REGISTRY.register(
        experiment.id, lambda experiment=experiment: experiment,
        aliases=aliases, title=experiment.title,
    )


# Every figure/table of the reproduction, registered in the paper's order.
# Third-party experiments join through ``repro.registry.register_experiment``
# and appear in :data:`EXPERIMENTS`, ``repro figure`` and ``repro report``.
_register_builtin(Experiment("2", "Figure 2 — memory consumption", figure2_memory_consumption, figure2_spec))
_register_builtin(Experiment("3", "Figure 3 — inactive periods", figure3_inactive_periods, figure3_spec))
_register_builtin(Experiment("4", "Figure 4 — size vs inactivity", figure4_size_vs_inactive, figure4_spec))
_register_builtin(Experiment("11", "Figure 11 — end-to-end performance", figure11_end_to_end, figure11_spec, True))
_register_builtin(Experiment("12", "Figure 12 — overlap/stall breakdown", figure12_breakdown, figure12_spec, True))
_register_builtin(Experiment("13", "Figure 13 — per-kernel slowdown", figure13_kernel_slowdown, figure13_spec, True))
_register_builtin(Experiment("14", "Figure 14 — migration traffic", figure14_traffic, figure14_spec, True))
_register_builtin(Experiment("15", "Figure 15 — batch-size sweep", figure15_batch_sweep, figure15_spec, True))
_register_builtin(Experiment("16", "Figure 16 — host-memory sensitivity", figure16_host_memory, figure16_spec, True))
_register_builtin(Experiment("17", "Figure 17 — host-memory comparison", figure17_host_memory_compare, figure17_spec))
_register_builtin(Experiment("18", "Figure 18 — SSD-bandwidth scaling", figure18_ssd_bandwidth, figure18_spec, True))
_register_builtin(Experiment("19", "Figure 19 — profiling-error robustness", figure19_profiling_error, figure19_spec, True))
_register_builtin(
    Experiment("lifetime", "§7.7 — SSD lifetime", section77_ssd_lifetime, section77_spec, True),
    aliases=("77",),
)
_register_builtin(Experiment("table1", "Table 1 — model zoo", table1_models, table1_spec))
_register_builtin(Experiment("table2", "Table 2 — system configuration", _render_table2, None))
_register_builtin(
    Experiment(
        "tenancy", "Multi-tenant contention sweep", tenancy_contention, tenancy_spec, True
    ),
    aliases=("serving", "multitenant"),
)


class _ExperimentView(Sequence):
    """Live, ordered view of every registered experiment.

    Kept as the importable :data:`EXPERIMENTS` name so existing callers (and
    tests) keep iterating a sequence, while experiments registered after
    import — e.g. by plugins — still show up.
    """

    def _experiments(self) -> list[Experiment]:
        return [entry.factory() for entry in EXPERIMENT_REGISTRY]

    def __iter__(self):
        return iter(self._experiments())

    def __getitem__(self, index):
        return self._experiments()[index]

    def __len__(self) -> int:
        return len(EXPERIMENT_REGISTRY)

    def __repr__(self) -> str:
        return f"EXPERIMENTS({[e.id for e in self._experiments()]})"


#: Every registered figure/table, in registration (= paper) order.
EXPERIMENTS = _ExperimentView()

#: Import-time snapshot of the built-in alias table, kept for backward
#: compatibility. For live data (including plugin registrations) use
#: :func:`experiment_ids` or ``EXPERIMENT_REGISTRY.aliases()``.
EXPERIMENT_ALIASES: dict[str, str] = EXPERIMENT_REGISTRY.aliases()


def experiment_ids() -> list[str]:
    """Every accepted ``repro figure`` id: canonical ids plus aliases."""
    return sorted(set(EXPERIMENT_REGISTRY.available()) | set(EXPERIMENT_REGISTRY.aliases()))


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (``"11"``, ``"table1"``, ``"77"``, ...)."""
    return EXPERIMENT_REGISTRY.create(experiment_id)


def _resolve(figures: Sequence[str] | None) -> list[Experiment]:
    if figures is None:
        return list(EXPERIMENTS)
    resolved = [get_experiment(fid) for fid in figures]
    seen: set[str] = set()
    unique = []
    for experiment in resolved:
        if experiment.id not in seen:
            seen.add(experiment.id)
            unique.append(experiment)
    return unique


def combined_spec(
    scale: str = "paper", figures: Sequence[str] | None = None
) -> SweepSpec:
    """The union grid of every selected experiment, in report order.

    Duplicate cells across figures keep their first position, so the combined
    spec shards exactly like the per-figure specs would, workload-locality
    included.
    """
    cells = []
    for experiment in _resolve(figures):
        if experiment.spec is not None:
            cells.extend(experiment.spec(scale).cells)
    return SweepSpec(name="report", cells=tuple(cells))


def enqueue_report(
    queue,
    scale: str = "ci",
    figures: Sequence[str] | None = None,
    cache=None,
    priority: str | None = None,
) -> dict[str, int]:
    """Enqueue the union report grid into a work queue (``repro queue enqueue``).

    This is the producer half of a queue-mode sweep: one enqueue, then any
    number of competing consumers (``repro queue work`` processes, possibly on
    different machines with independent caches) drain the grid; merging their
    caches makes :func:`generate_report` a pure, ``expect_warm`` resume.
    Cells already warm in ``cache`` are recorded as done rather than queued.
    Enqueueing is idempotent — keys already tracked by the queue are skipped —
    so a crashed producer can simply re-run. ``priority="slowest-first"``
    records estimated cell costs so consumers start the longest cells first.
    """
    return queue.enqueue(combined_spec(scale, figures).cells, cache=cache, priority=priority)


def warm_cache(
    scale: str = "ci",
    figures: Sequence[str] | None = None,
    runner: SweepRunner | None = None,
    shard_index: int = 0,
    shard_count: int = 1,
) -> dict[str, int]:
    """Execute one shard of the full report grid into the runner's cache.

    This is the distributed half of a paper-scale sweep: N invocations with
    ``shard_index = 0..N-1`` (each against its own cache directory, later
    combined with ``repro cache merge``) together warm every cell the report
    needs, and :func:`generate_report` then renders figures without running a
    single simulation. Returns the runner's ``last_stats``.
    """
    runner = runner or SweepRunner()
    if runner.cache is None:
        raise ConfigurationError("warm_cache requires a runner with a cache")
    runner.run(combined_spec(scale, figures), shard_index=shard_index, shard_count=shard_count)
    return dict(runner.last_stats)


class _MemoryStore(dict):
    """In-memory result store (get/put/has) for a report run without a cache:
    each distinct cell still executes once and every figure renders from it."""

    def put(self, key: str, payload: dict, cell: dict | None = None) -> None:
        self[key] = payload

    def has(self, key: str) -> bool:
        return key in self


def _plans_in_report_order(
    experiments: Sequence[Experiment], scale: str, runner: SweepRunner
) -> dict[str, SweepPlan]:
    """Each experiment's plan as if the figures ran one after another.

    A cell counts as warm for a figure when the store already held it or an
    earlier figure's grid contains it — the provenance a figure-by-figure run
    records, computed before the single execution of the union grid.
    """
    plans: dict[str, SweepPlan] = {}
    earlier: set[str] = set()
    for experiment in experiments:
        if experiment.spec is None:
            continue
        plan = runner.plan(experiment.spec(scale))
        plans[experiment.id] = replace(
            plan,
            entries=tuple(
                replace(entry, cached=entry.cached or entry.key in earlier)
                for entry in plan.entries
            ),
        )
        earlier.update(entry.key for entry in plan.entries)
    return plans


def _provenance(plan: SweepPlan) -> list[dict[str, object]]:
    rows = []
    for entry in plan.entries:
        cell = entry.cell.resolved()
        rows.append(
            {
                "model": cell.model,
                "policy": cell.policy if cell.policy is not None else "(characterize)",
                "batch": cell.batch_size,
                "key": entry.key[:12],
                "status": "warm" if entry.cached else "recomputed",
            }
        )
    return rows


#: PerfCounters fields aggregated into report provenance.
_PERF_FIELDS = ("events_processed", "pages_moved", "fault_events", "eviction_stalls")


def _cell_perf(payload: dict) -> dict[str, int]:
    """A cell's :class:`~repro.sim.results.PerfCounters` fields (zeros for a
    characterization cell). The counters are deterministic, so they serialize
    into the payload and read the same whether it was served warm or
    recomputed."""
    raw = payload["result"].get("perf", {}) if payload["kind"] == "simulation" else {}
    return {field: int(raw.get(field, 0)) for field in _PERF_FIELDS}


def _perf_totals(plan: SweepPlan, perf: Mapping[str, dict[str, int]]) -> dict[str, int]:
    """Simulation work (events processed, pages moved, faults, eviction
    stalls) summed over a figure's distinct cells, from ``perf`` by cache key."""
    keys = dict.fromkeys(entry.key for entry in plan.entries)
    return {field: sum(perf[key][field] for key in keys) for field in _PERF_FIELDS}


def generate_report(
    scale: str = "ci",
    figures: Sequence[str] | None = None,
    runner: SweepRunner | None = None,
    output_dir: str | Path = "report",
    expect_warm: bool = False,
) -> dict:
    """Render every selected experiment from the cache into an artifact tree.

    Every figure's spec is first *planned* against the runner's cache
    (recording, per cell, whether the result is warm by the time a
    figure-by-figure run would reach it). The union grid
    (:func:`combined_spec`) then executes its misses in one
    :meth:`~repro.experiments.sweep.SweepRunner.run` — one process pool,
    costliest workload first — and each figure renders from the store into
    ``<output_dir>/<id>.json``. Without a cache the store is in memory, so
    each distinct cell still executes once. The manifest of all plans is
    written to ``report.json`` and a human-readable ``report.md`` summarises
    warm vs recomputed counts per figure, with per-cell provenance tables.

    With ``expect_warm=True`` a :class:`~repro.errors.ReproError` is raised
    (after all artifacts are written, so the report can be inspected) if any
    cell had to be recomputed — the CI contract that incremental figure
    regeneration really was served by the merged shard caches.
    """
    runner = runner or SweepRunner()
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    manifest: dict = {"scale": scale, "figures": []}
    if runner.cache is not None:
        manifest["cache_root"] = str(runner.cache.root)
    else:
        runner = SweepRunner(jobs=runner.jobs, cache=_MemoryStore())

    experiments = _resolve(figures)
    plans = _plans_in_report_order(experiments, scale, runner)
    # The plans' cells, concatenated, are combined_spec(scale, figures).
    entries = [entry for plan in plans.values() for entry in plan.entries]
    combined = SweepSpec(name="report", cells=tuple(entry.cell for entry in entries))
    perf = {
        entry.key: _cell_perf(result.payload)
        for entry, result in zip(entries, runner.run(combined))
    }

    for experiment in experiments:
        entry: dict = {"id": experiment.id, "title": experiment.title}
        plan = plans.get(experiment.id)
        if plan is not None:
            entry.update(plan.counts())
            entry["provenance"] = _provenance(plan)
            entry["perf"] = _perf_totals(plan, perf)
        else:
            entry.update({"cells": 0, "distinct": 0, "warm": 0, "to_execute": 0})
            entry["provenance"] = []
            entry["perf"] = dict.fromkeys(_PERF_FIELDS, 0)
        payload = jsonify(experiment.render(scale=scale, runner=runner))
        artifact = output_dir / f"{artifact_name(experiment.id)}.json"
        with artifact.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        entry["artifact"] = artifact.name
        entry["payload"] = payload if experiment.id in ("table1", "table2") else None
        manifest["figures"].append(entry)

    totals = {
        "cells": sum(f["cells"] for f in manifest["figures"]),
        "distinct": sum(f["distinct"] for f in manifest["figures"]),
        "warm": sum(f["warm"] for f in manifest["figures"]),
        "recomputed": sum(f["to_execute"] for f in manifest["figures"]),
        "perf": {
            field: sum(f["perf"][field] for f in manifest["figures"]) for field in _PERF_FIELDS
        },
    }
    manifest["totals"] = totals

    with (output_dir / "report.json").open("w", encoding="utf-8") as fh:
        json.dump(_manifest_json(manifest), fh, indent=2, sort_keys=True)
    (output_dir / "report.md").write_text(render_report_markdown(manifest), encoding="utf-8")

    if expect_warm and totals["recomputed"] > 0:
        cold = [f["id"] for f in manifest["figures"] if f["to_execute"] > 0]
        raise ReproError(
            f"expected a fully warm cache but {totals['recomputed']} cell(s) "
            f"were recomputed (figures: {', '.join(cold)})"
        )
    return manifest


def artifact_name(experiment_id: str) -> str:
    """Basename (sans extension) of an experiment's JSON artifact/golden file.

    Purely numeric ids are the paper's figures (``"11"`` → ``figure11``);
    named experiments (``table1``, ``lifetime``, ``tenancy``) keep their id.
    """
    return f"figure{experiment_id}" if experiment_id.isdigit() else experiment_id


def _manifest_json(manifest: dict) -> dict:
    """The manifest without embedded payload copies (artifacts hold those)."""
    slim = dict(manifest)
    slim["figures"] = [
        {key: value for key, value in figure.items() if key != "payload"}
        for figure in manifest["figures"]
    ]
    return slim


def render_report_markdown(manifest: dict) -> str:
    """The ``report.md`` body for a :func:`generate_report` manifest."""
    totals = manifest["totals"]
    lines = [
        f"# Reproduction report (scale={manifest['scale']})",
        "",
        f"{totals['cells']} sweep cells ({totals['distinct']} distinct) across "
        f"{len(manifest['figures'])} artifacts: "
        f"**{totals['warm']} served warm** from the result cache, "
        f"**{totals['recomputed']} recomputed**.",
    ]
    if "cache_root" in manifest:
        lines.append(f"Cache root: `{manifest['cache_root']}`.")
    perf = totals["perf"]
    lines.append(
        f"Simulation work behind the artifacts: {perf['events_processed']:,} "
        f"events processed, {perf['pages_moved']:,} pages moved, "
        f"{perf['fault_events']:,} fault events, "
        f"{perf['eviction_stalls']:,} eviction stalls."
    )
    lines += [
        "",
        format_markdown_table(
            [
                {
                    "artifact": figure["title"],
                    "cells": figure["cells"],
                    "distinct": figure["distinct"],
                    "warm": figure["warm"],
                    "recomputed": figure["to_execute"],
                    "file": f"`{figure['artifact']}`",
                }
                for figure in manifest["figures"]
            ]
        ),
    ]
    for figure in manifest["figures"]:
        lines += ["", f"## {figure['title']}", ""]
        if figure["id"] == "table1" and figure.get("payload"):
            lines += [format_markdown_table(figure["payload"]), ""]
        elif figure["id"] == "table2" and figure.get("payload"):
            lines += [
                format_markdown_table(
                    [{"parameter": k, "value": v} for k, v in figure["payload"].items()]
                ),
                "",
            ]
        if not figure["provenance"]:
            lines.append("No sweep cells (static artifact).")
            continue
        lines += [
            f"{figure['cells']} cells ({figure['distinct']} distinct): "
            f"{figure['warm']} warm, {figure['to_execute']} recomputed — "
            f"results in `{figure['artifact']}`.",
            "",
            "<details><summary>Cell provenance</summary>",
            "",
            format_markdown_table(figure["provenance"]),
            "",
            "</details>",
        ]
    lines.append("")
    return "\n".join(lines)
